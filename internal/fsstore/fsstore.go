// Package fsstore is the filesystem backend of the abstract data interface
// (paper §4.2). It is the right backend for small files that hold simulation
// state (checkpoints, logs) or must interface with external tools, and it
// carries the paper's "I/O armoring": atomic writes (temp file + rename) and
// bounded retries when reads or writes fail. A fault-injection hook lets
// tests exercise the armoring the way a loaded parallel filesystem would.
package fsstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mummi/internal/datastore"
)

// Option configures a Store.
type Option func(*Store)

// WithFaultHook installs a hook consulted before every primitive filesystem
// operation. Returning a non-nil error makes that operation fail (once);
// used by tests to inject transient filesystem failures.
func WithFaultHook(h func(op, path string) error) Option {
	return func(s *Store) { s.fault = h }
}

// A failed I/O operation is retried this many times, this far apart.
const (
	retries    = 3
	retryDelay = time.Millisecond
)

// Store implements datastore.Store on a directory tree: one subdirectory per
// namespace, one file per key.
type Store struct {
	root  string
	fault func(op, path string) error

	mu sync.Mutex // serializes multi-step operations (write+rename, move)
}

// New creates (if needed) root and returns a Store over it.
func New(root string, opts ...Option) (*Store, error) {
	s := &Store{root: root}
	for _, o := range opts {
		o(s)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: %w", err)
	}
	return s, nil
}

func init() {
	datastore.Register(datastore.BackendFS, func(cfg datastore.Config) (datastore.Store, error) {
		return New(cfg.Root)
	})
}

func (s *Store) inject(op, path string) error {
	if s.fault != nil {
		return s.fault(op, path)
	}
	return nil
}

// retry runs f up to 1+retries times, sleeping retryDelay between attempts.
func (s *Store) retry(f func() error) error {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		if errors.Is(err, datastore.ErrNotFound) {
			return err // not transient; don't burn retries
		}
		if attempt < retries {
			time.Sleep(retryDelay)
		}
	}
	return err
}

// sanitize rejects path elements that would escape the root.
func sanitize(name string) (string, error) {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.Contains(name, "\x00") {
		return "", fmt.Errorf("fsstore: invalid name %q", name)
	}
	return name, nil
}

func (s *Store) path(ns, key string) (string, error) {
	n, err := sanitize(ns)
	if err != nil {
		return "", err
	}
	k, err := sanitize(key)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.root, n, k), nil
}

// Put implements datastore.Store with atomic write-then-rename.
func (s *Store) Put(ns, key string, data []byte) error {
	p, err := s.path(ns, key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retry(func() error {
		if err := s.inject("put", p); err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		tmp := p + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, p)
	})
}

// Get implements datastore.Store.
func (s *Store) Get(ns, key string) ([]byte, error) {
	p, err := s.path(ns, key)
	if err != nil {
		return nil, err
	}
	var out []byte
	err = s.retry(func() error {
		if err := s.inject("get", p); err != nil {
			return err
		}
		b, err := os.ReadFile(p)
		if err == nil {
			out = b
			return nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
		}
		return err
	})
	return out, err
}

// Delete implements datastore.Store.
func (s *Store) Delete(ns, key string) error {
	p, err := s.path(ns, key)
	if err != nil {
		return err
	}
	return s.retry(func() error {
		if err := s.inject("delete", p); err != nil {
			return err
		}
		err := os.Remove(p)
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
		}
		return err
	})
}

// Keys implements datastore.Store.
func (s *Store) Keys(ns string) ([]string, error) {
	n, err := sanitize(ns)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(s.root, n)
	var keys []string
	err = s.retry(func() error {
		if err := s.inject("keys", dir); err != nil {
			return err
		}
		ents, err := os.ReadDir(dir)
		if errors.Is(err, fs.ErrNotExist) {
			keys = nil
			return nil
		}
		if err != nil {
			return err
		}
		keys = keys[:0]
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || strings.HasSuffix(name, ".tmp") {
				continue
			}
			keys = append(keys, name)
		}
		return nil
	})
	return keys, err
}

// Move implements datastore.Store via rename.
func (s *Store) Move(srcNS, key, dstNS string) error {
	src, err := s.path(srcNS, key)
	if err != nil {
		return err
	}
	dst, err := s.path(dstNS, key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retry(func() error {
		if err := s.inject("move", src); err != nil {
			return err
		}
		if _, err := os.Stat(src); errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, srcNS, key)
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.Rename(src, dst)
	})
}

// Close implements datastore.Store.
func (s *Store) Close() error { return nil }
