// Package datastore defines mummi's abstract data interface (paper §4.2).
//
// Rather than speculating on all access patterns and writing tailored
// implementations, every component reads and writes named byte streams
// through the Store interface; concrete backends (filesystem, indexed tar
// archives, and the in-memory key-value database) are selected with a single
// configuration switch. Application modules stay agnostic to read/write
// details, and backends can be implemented and tested in isolation — the
// exact flexibility the paper credits for reducing development overhead.
package datastore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound is returned when a key does not exist in a namespace.
var ErrNotFound = errors.New("datastore: key not found")

// ErrTransient marks an error as retryable: the operation failed for a
// reason expected to clear on its own (a flaky parallel-filesystem call, a
// reset database connection, an injected chaos fault). Backends and fault
// injectors wrap ErrTransient into such errors; Armor retries exactly the
// errors for which errors.Is(err, ErrTransient) holds and treats everything
// else — including ErrNotFound — as permanent.
var ErrTransient = errors.New("datastore: transient error")

// Store is the abstract data interface. A Store holds byte values addressed
// by (namespace, key). Namespaces map to directories (filesystem backend),
// archives (taridx backend), or key prefixes (database backend).
//
// Move relocates a key between namespaces; it is the primitive behind the
// paper's feedback "tagging" strategy: processed frames are moved out of the
// active namespace (files into tar archives, or database keys renamed) so
// that feedback cost scales with ongoing simulations, not with every frame
// ever produced.
type Store interface {
	// Put stores data under (ns, key), overwriting any previous value.
	Put(ns, key string, data []byte) error
	// Get retrieves the value at (ns, key), or ErrNotFound.
	Get(ns, key string) ([]byte, error)
	// Delete removes (ns, key). Deleting a missing key returns ErrNotFound.
	Delete(ns, key string) error
	// Keys lists the keys in ns in unspecified order. A missing namespace
	// yields an empty list, not an error.
	Keys(ns string) ([]string, error)
	// Move atomically (per backend guarantees) relocates key from srcNS to
	// dstNS, overwriting any existing value there.
	Move(srcNS, key, dstNS string) error
	// Close releases resources. The Store must not be used afterwards.
	Close() error
}

// BatchGetter is an optional Store extension: fetch many keys in one
// operation (one pipelined round trip per database node, for the kv
// backend). The feedback loops use it when available — the paper fetches
// frames "in parallel (when reading from files) or serial (when using a
// high-throughput database)", i.e. batched on the database path.
type BatchGetter interface {
	// GetBatch returns the values for the given keys; missing keys are
	// simply absent from the result.
	GetBatch(ns string, keys []string) (map[string][]byte, error)
}

// BatchMover is an optional Store extension: move many keys between
// namespaces in one operation (pipelined renames).
type BatchMover interface {
	// MoveBatch moves each key from srcNS to dstNS; missing keys are
	// skipped.
	MoveBatch(srcNS string, keys []string, dstNS string) error
}

// Extend makes a store wrapper capability-preserving: it returns outer, which
// wraps inner, extended with exactly the optional capabilities inner has —
// BatchGetter served by getBatch, BatchMover by moveBatch. A function for a
// capability inner lacks is never called, so it may assume the capability.
func Extend(inner, outer Store,
	getBatch func(ns string, keys []string) (map[string][]byte, error),
	moveBatch func(srcNS string, keys []string, dstNS string) error) Store {
	_, bg := inner.(BatchGetter)
	_, bm := inner.(BatchMover)
	switch {
	case bg && bm:
		return &struct {
			Store
			getBatchFunc
			moveBatchFunc
		}{outer, getBatch, moveBatch}
	case bg:
		return &struct {
			Store
			getBatchFunc
		}{outer, getBatch}
	case bm:
		return &struct {
			Store
			moveBatchFunc
		}{outer, moveBatch}
	}
	return outer
}

// getBatchFunc adapts a function to BatchGetter.
type getBatchFunc func(ns string, keys []string) (map[string][]byte, error)

// GetBatch implements BatchGetter.
func (f getBatchFunc) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	return f(ns, keys)
}

// moveBatchFunc adapts a function to BatchMover.
type moveBatchFunc func(srcNS string, keys []string, dstNS string) error

// MoveBatch implements BatchMover.
func (f moveBatchFunc) MoveBatch(srcNS string, keys []string, dstNS string) error {
	return f(srcNS, keys, dstNS)
}

// Backend names accepted by Open.
const (
	BackendMemory = "memory"
	BackendFS     = "fs"
	BackendTaridx = "taridx"
	BackendKV     = "kv"
)

// Config selects and parameterizes a backend. This is the "single
// configuration switch" from the paper: change Backend and nothing else.
type Config struct {
	// Backend is one of BackendMemory, BackendFS, BackendTaridx, BackendKV.
	Backend string `json:"backend"`
	// Root is the directory for fs/taridx backends.
	Root string `json:"root,omitempty"`
	// Addrs lists kv-cluster server addresses for the kv backend.
	Addrs []string `json:"addrs,omitempty"`
	// Replicas optionally lists one replica address per entry of Addrs
	// (same order), making each kv shard a replicated primary/replica
	// pair with client-side failover. Empty means unreplicated.
	Replicas []string `json:"replicas,omitempty"`
}

// Opener constructs a Store from a Config. Backends self-register so that
// this package does not import its implementations (avoiding cycles and
// letting applications add their own backends, per §4.5).
type Opener func(Config) (Store, error)

var (
	openersMu sync.RWMutex
	openers   = map[string]Opener{}
)

// Register installs an Opener for a backend name. Later registrations for
// the same name replace earlier ones (useful in tests).
func Register(name string, o Opener) {
	openersMu.Lock()
	defer openersMu.Unlock()
	openers[name] = o
}

// Backends returns the sorted list of registered backend names.
func Backends() []string {
	openersMu.RLock()
	defer openersMu.RUnlock()
	names := make([]string, 0, len(openers))
	for n := range openers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Open constructs the Store selected by cfg.Backend.
func Open(cfg Config) (Store, error) {
	openersMu.RLock()
	o, ok := openers[cfg.Backend]
	openersMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("datastore: unknown backend %q (registered: %v)", cfg.Backend, Backends())
	}
	return o(cfg)
}

// Memory is a trivial in-process Store used as a reference implementation
// and in tests; it also serves small deployments the way the paper's "use
// of individual components" on laptops does.
type Memory struct {
	mu sync.RWMutex
	m  map[string]map[string][]byte
}

// NewMemory returns an empty in-process store.
func NewMemory() *Memory { return &Memory{m: make(map[string]map[string][]byte)} }

func init() {
	Register(BackendMemory, func(Config) (Store, error) { return NewMemory(), nil })
}

// Put implements Store.
func (s *Memory) Put(ns, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nsm, ok := s.m[ns]
	if !ok {
		nsm = make(map[string][]byte)
		s.m[ns] = nsm
	}
	nsm[key] = append([]byte(nil), data...)
	return nil
}

// Get implements Store.
func (s *Memory) Get(ns, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[ns][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, key)
	}
	return append([]byte(nil), v...), nil
}

// Delete implements Store.
func (s *Memory) Delete(ns, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[ns][key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, ns, key)
	}
	delete(s.m[ns], key)
	return nil
}

// Keys implements Store.
func (s *Memory) Keys(ns string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m[ns]))
	for k := range s.m[ns] {
		keys = append(keys, k)
	}
	return keys, nil
}

// Move implements Store. A move onto the key's own namespace keeps it.
func (s *Memory) Move(srcNS, key, dstNS string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[srcNS][key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, srcNS, key)
	}
	delete(s.m[srcNS], key)
	nsm, ok := s.m[dstNS]
	if !ok {
		nsm = make(map[string][]byte)
		s.m[dstNS] = nsm
	}
	nsm[key] = v
	return nil
}

// Close implements Store.
func (s *Memory) Close() error { return nil }
