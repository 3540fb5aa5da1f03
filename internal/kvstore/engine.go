// Package kvstore is mummi-go's substitute for the Redis™ cluster the paper
// uses for high-throughput, updatable in situ data (§4.2): an in-memory
// key-value engine, a TCP server speaking a RESP-compatible wire protocol,
// a pipelining client, and a cluster client that spreads keys across server
// nodes. Feedback runs against this store instead of the filesystem, which
// is what bought the paper its >12× faster feedback loop: key scans,
// value reads, deletions, and renames (the "move out of namespace" tagging
// primitive) all happen at memory speed, away from contended directories.
package kvstore

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ErrNoSuchKey is returned by Get/Rename for missing keys.
var ErrNoSuchKey = errors.New("kvstore: no such key")

// Engine is the in-memory keyspace. It is safe for concurrent use and is
// shared by the embedded (in-process) and networked paths, so behaviour is
// identical whichever way a component connects.
//
// The keyspace is partitioned by namespace: m maps a partition name — a
// key's prefix through its first nsSep, or "" when it has none — to that
// partition's keys. A KEYS "ns:*" scan walks one namespace, not the shard.
// Every write goes through put and take.
type Engine struct {
	mu sync.RWMutex
	m  map[string]map[string][]byte
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{m: make(map[string]map[string][]byte)} }

// partOf names key's partition.
func partOf(key string) string { return key[:strings.IndexByte(key, nsSep[0])+1] }

// partOfBytes is partOf for a wire argument; indexing e.m with
// string(partOfBytes(k)) does not allocate.
func partOfBytes(key []byte) []byte { return key[:bytes.IndexByte(key, nsSep[0])+1] }

// put stores value under key. Caller holds e.mu for writing.
func (e *Engine) put(key string, value []byte) {
	name := partOf(key)
	part := e.m[name]
	if part == nil {
		part = make(map[string][]byte)
		e.m[strings.Clone(name)] = part
	}
	part[key] = value
}

// take removes key and returns its value. Caller holds e.mu for writing.
// An emptied partition stays, with its buckets, for the next round of
// writes to that namespace.
func (e *Engine) take(key string) ([]byte, bool) {
	part := e.m[partOf(key)]
	v, ok := part[key]
	delete(part, key)
	return v, ok
}

// partitions names, sorted, the partitions that can hold a key starting
// with prefix: prefix's own, and for a prefix without nsSep also every
// partition it prefixes. Caller holds e.mu.
func (e *Engine) partitions(prefix string) []string {
	var names []string
	for name := range e.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return slices.DeleteFunc(names, func(name string) bool {
		return name != partOf(prefix) && !strings.HasPrefix(name, prefix)
	})
}

// match returns the keys starting with prefix, unordered. Caller holds e.mu.
func (e *Engine) match(prefix string) []string {
	var out []string
	for _, name := range e.partitions(prefix) {
		for k := range e.m[name] { //lint:allow determinism -- every caller sorts the matches
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
	}
	return out
}

// Set stores value under key. The stored copy is always non-nil so that an
// empty value stays distinguishable from a missing key on the wire (RESP
// encodes missing as a nil bulk string, empty as a zero-length one).
func (e *Engine) Set(key string, value []byte) {
	v := clone(value)
	e.mu.Lock()
	e.put(key, v)
	e.mu.Unlock()
}

// clone copies b into a fresh non-nil slice (append would return nil for
// empty input, collapsing "empty value" into "missing key").
func clone(b []byte) []byte {
	v := make([]byte, len(b))
	copy(v, b)
	return v
}

// setOwned stores value without copying — the server's fast path. The
// caller must hand over a freshly allocated slice and never touch it again;
// combined with Set's clone-on-write this keeps every stored value
// immutable, which is what lets getRef/mgetRef serve references.
func (e *Engine) setOwned(key string, value []byte) {
	if value == nil {
		value = []byte{}
	}
	e.mu.Lock()
	e.put(key, value)
	e.mu.Unlock()
}

// msetOwned stores alternating key/value arguments under a single lock
// acquisition — the per-key cost inside an MSET batch is one map assign,
// not a lock round trip. Ownership semantics match setOwned.
func (e *Engine) msetOwned(kv [][]byte) {
	e.mu.Lock()
	for i := 0; i+1 < len(kv); i += 2 {
		v := kv[i+1]
		if v == nil {
			v = []byte{}
		}
		e.put(string(kv[i]), v)
	}
	e.mu.Unlock()
}

// Get returns the value at key.
func (e *Engine) Get(key string) ([]byte, error) {
	e.mu.RLock()
	v, ok := e.m[partOf(key)][key]
	e.mu.RUnlock()
	if !ok {
		return nil, ErrNoSuchKey
	}
	return clone(v), nil
}

// getRef returns the stored value without copying. Stored values are
// immutable (Set clones, setOwned transfers ownership, Rename moves the
// slice), so the reference is safe to serialize concurrently with writes —
// a racing Set replaces the map entry, it never mutates the old bytes.
// Callers must not mutate the result.
func (e *Engine) getRef(key []byte) ([]byte, bool) {
	e.mu.RLock()
	v, ok := e.m[string(partOfBytes(key))][string(key)]
	e.mu.RUnlock()
	return v, ok
}

// mgetRef is the multi-key getRef: one lock acquisition, references out,
// nil entries for missing keys. Same immutability contract as getRef.
func (e *Engine) mgetRef(keys [][]byte) [][]byte {
	out := make([][]byte, len(keys))
	e.mu.RLock()
	for i, k := range keys {
		if v, ok := e.m[string(partOfBytes(k))][string(k)]; ok {
			out[i] = v
		}
	}
	e.mu.RUnlock()
	return out
}

// Del removes keys, returning how many existed.
func (e *Engine) Del(keys ...string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, k := range keys {
		if _, ok := e.take(k); ok {
			n++
		}
	}
	return n
}

// Exists reports whether key is present.
func (e *Engine) Exists(key string) bool {
	e.mu.RLock()
	_, ok := e.m[partOf(key)][key]
	e.mu.RUnlock()
	return ok
}

// Keys returns all keys matching pattern, sorted. Patterns are literal
// strings with an optional single trailing '*' wildcard — the only form the
// workflow uses (namespace prefixes like "rdf:new:*"). Only the partitions
// the pattern can match are walked, and the matches are sorted after the
// read lock is released, so writers wait for the walk alone.
func (e *Engine) Keys(pattern string) []string {
	prefix, wildcard := strings.CutSuffix(pattern, "*")
	e.mu.RLock()
	out := e.match(prefix)
	e.mu.RUnlock()
	if !wildcard {
		out = slices.DeleteFunc(out, func(k string) bool { return k != pattern })
	}
	sort.Strings(out)
	return out
}

// Rename moves the value at src to dst, the primitive behind feedback
// tagging ("renaming keys in the database"). Renaming a key onto itself
// keeps it, as in Redis.
func (e *Engine) Rename(src, dst string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.take(src)
	if !ok {
		return ErrNoSuchKey
	}
	e.put(dst, v)
	return nil
}

// MGet returns values for keys; missing keys yield nil entries.
func (e *Engine) MGet(keys ...string) [][]byte {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if v, ok := e.m[partOf(k)][k]; ok {
			out[i] = clone(v)
		}
	}
	return out
}

// Size returns the number of keys.
func (e *Engine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, name := range e.partitions("") {
		n += len(e.m[name])
	}
	return n
}

// Flush removes every key.
func (e *Engine) Flush() {
	e.mu.Lock()
	e.m = make(map[string]map[string][]byte)
	e.mu.Unlock()
}
