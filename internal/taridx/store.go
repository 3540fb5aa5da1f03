package taridx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mummi/internal/datastore"
)

// Store adapts indexed tar archives to the abstract data interface: one
// archive per namespace under a root directory. It is the backend of choice
// for write-mostly data at scale (patches, snapshots, analysis, RDFs in the
// paper), where collecting files into archives slashes inode counts while
// random access stays cheap.
type Store struct {
	root string

	mu       sync.Mutex
	archives map[string]*Archive
}

// NewStore returns a Store rooted at root (created if needed).
func NewStore(root string) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("taridx: %w", err)
	}
	return &Store{root: root, archives: make(map[string]*Archive)}, nil
}

func init() {
	datastore.Register(datastore.BackendTaridx, func(cfg datastore.Config) (datastore.Store, error) {
		return NewStore(cfg.Root)
	})
}

func validNS(ns string) error {
	if ns == "" || strings.ContainsAny(ns, "/\\") || ns == "." || ns == ".." {
		return fmt.Errorf("taridx: invalid namespace %q", ns)
	}
	return nil
}

// archive returns (opening or creating) the namespace's archive.
// create=false avoids materializing empty archives for read-only queries.
func (s *Store) archive(ns string, create bool) (*Archive, error) {
	if err := validNS(ns); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.archives[ns]; ok {
		return a, nil
	}
	path := filepath.Join(s.root, ns+".tar")
	if !create {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
	}
	a, err := Open(path)
	if err != nil {
		return nil, err
	}
	s.archives[ns] = a
	return a, nil
}

// Put implements datastore.Store.
func (s *Store) Put(ns, key string, data []byte) error {
	a, err := s.archive(ns, true)
	if err != nil {
		return err
	}
	return a.Put(key, data)
}

// Get implements datastore.Store.
func (s *Store) Get(ns, key string) ([]byte, error) {
	a, err := s.archive(ns, false)
	if err != nil {
		return nil, err
	}
	if a == nil {
		return nil, fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	}
	b, err := a.Get(key)
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	}
	return b, err
}

// Delete implements datastore.Store (index-only removal; see Archive.Delete).
func (s *Store) Delete(ns, key string) error {
	a, err := s.archive(ns, false)
	if err != nil {
		return err
	}
	if a == nil {
		return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	}
	if err := a.Delete(key); errors.Is(err, ErrNotFound) {
		return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key)
	} else if err != nil {
		return err
	}
	return nil
}

// Keys implements datastore.Store.
func (s *Store) Keys(ns string) ([]string, error) {
	a, err := s.archive(ns, false)
	if err != nil {
		return nil, err
	}
	if a == nil {
		return nil, nil
	}
	return a.Keys(), nil
}

// Move implements datastore.Store: copy into the destination archive, then
// drop the source index entry. This is exactly the paper's "moving files to
// tar archives" tagging primitive. A move onto the key's own namespace keeps
// it.
func (s *Store) Move(srcNS, key, dstNS string) error {
	b, err := s.Get(srcNS, key)
	if err != nil || srcNS == dstNS {
		return err
	}
	if err := s.Put(dstNS, key, b); err != nil {
		return err
	}
	return s.Delete(srcNS, key)
}

// Close closes all open archives.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, a := range s.archives {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.archives = make(map[string]*Archive)
	return first
}
