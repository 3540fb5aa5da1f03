package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Persistence: the paper leans on Redis's redundancy for resilience ("Redis
// is an industry standard that utilizes redundancy to mitigate failures").
// This file provides the equivalent snapshot persistence (RDB-style): an
// engine can be dumped to and reloaded from a compact binary snapshot, so a
// killed server node restarts with its keyspace intact.

var persistMagic = [4]byte{'M', 'K', 'V', '1'}

// maxPersistEntry bounds a single key or value read back from a snapshot,
// guarding loads against corrupt length prefixes.
const maxPersistEntry = 256 << 20

// Save writes a point-in-time snapshot of the engine to w. The snapshot is
// taken under the engine's read lock: concurrent writes serialize against
// it but reads proceed.
func (e *Engine) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(persistMagic[:]); err != nil {
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Entries are written in sorted key order so that equal keyspaces always
	// produce byte-identical snapshots (and map iteration order never leaks
	// into persisted artifacts).
	keys := e.match("")
	sort.Strings(keys)
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeEntry(bw, []byte(k)); err != nil {
			return err
		}
		if err := writeEntry(bw, e.m[partOf(k)][k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeEntry(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// Load replaces the engine's contents with a snapshot read from r.
func (e *Engine) Load(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("kvstore: short snapshot: %w", err)
	}
	if magic != persistMagic {
		return errors.New("kvstore: bad snapshot magic")
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("kvstore: short snapshot header: %w", err)
	}
	fresh := NewEngine()
	for i := uint64(0); i < count; i++ {
		k, err := readEntry(br)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot key %d: %w", i, err)
		}
		v, err := readEntry(br)
		if err != nil {
			return fmt.Errorf("kvstore: snapshot value %d: %w", i, err)
		}
		fresh.put(string(k), v)
	}
	e.mu.Lock()
	e.m = fresh.m
	e.mu.Unlock()
	return nil
}

func readEntry(r io.Reader) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxPersistEntry {
		return nil, fmt.Errorf("entry of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// SaveFile atomically persists the engine to path (write temp + rename).
func (e *Engine) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := e.Save(f); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores the engine from a SaveFile snapshot.
func (e *Engine) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//lint:allow errdiscipline -- read-side close: Load already surfaced any data error
	defer f.Close()
	return e.Load(f)
}
