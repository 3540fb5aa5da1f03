// Package dstest provides a reusable conformance suite for datastore.Store
// implementations. Every backend (memory, fs, taridx, kv) must pass the same
// behavioural contract, which is what lets mummi switch backends with a
// single configuration change.
package dstest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mummi/internal/datastore"
)

// Run exercises the full Store contract against the store returned by mk.
// mk is called once per subtest so state never leaks between subtests.
func Run(t *testing.T, mk func(t *testing.T) datastore.Store) {
	t.Helper()

	t.Run("PutGetRoundTrip", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		want := []byte("rdf-frame-0001")
		if err := s.Put("rdfs", "f1", want); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("rdfs", "f1")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Get = %q, want %q", got, want)
		}
	})

	t.Run("GetMissing", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		if _, err := s.Get("ns", "absent"); !errors.Is(err, datastore.ErrNotFound) {
			t.Errorf("Get missing = %v, want ErrNotFound", err)
		}
	})

	t.Run("OverwriteLastWins", func(t *testing.T) {
		// The paper's archiving strategy: "the same key gets reinserted and
		// is taken to be the correct value".
		s := mk(t)
		defer closeStore(t, s)
		for i := 0; i < 3; i++ {
			if err := s.Put("ns", "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Get("ns", "k")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v2" {
			t.Errorf("Get after overwrites = %q, want v2", got)
		}
		keys, err := s.Keys("ns")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 {
			t.Errorf("Keys after overwrites = %v, want exactly one", keys)
		}
	})

	t.Run("EmptyValue", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		if err := s.Put("ns", "empty", nil); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("ns", "empty")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("empty value round-tripped as %q", got)
		}
	})

	t.Run("BinaryValue", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		blob := make([]byte, 4096)
		rand.New(rand.NewSource(7)).Read(blob)
		if err := s.Put("bin", "blob", blob); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("bin", "blob")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Error("binary blob corrupted in round-trip")
		}
	})

	t.Run("DeleteThenGetFails", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		if err := s.Put("ns", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("ns", "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("ns", "k"); !errors.Is(err, datastore.ErrNotFound) {
			t.Errorf("Get after delete = %v, want ErrNotFound", err)
		}
		if err := s.Delete("ns", "k"); !errors.Is(err, datastore.ErrNotFound) {
			t.Errorf("double Delete = %v, want ErrNotFound", err)
		}
	})

	t.Run("KeysListsNamespaceOnly", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		for i := 0; i < 5; i++ {
			if err := s.Put("a", fmt.Sprintf("k%d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Put("b", "other", []byte("y")); err != nil {
			t.Fatal(err)
		}
		keys, err := s.Keys("a")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(keys)
		if len(keys) != 5 || keys[0] != "k0" || keys[4] != "k4" {
			t.Errorf("Keys(a) = %v", keys)
		}
		empty, err := s.Keys("missing-ns")
		if err != nil {
			t.Fatal(err)
		}
		if len(empty) != 0 {
			t.Errorf("Keys of missing ns = %v, want empty", empty)
		}
	})

	t.Run("MoveTagsProcessedFrames", func(t *testing.T) {
		// Task 4's tagging: processed frames leave the active namespace.
		s := mk(t)
		defer closeStore(t, s)
		if err := s.Put("new", "frame1", []byte("rdf")); err != nil {
			t.Fatal(err)
		}
		if err := s.Move("new", "frame1", "done"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("new", "frame1"); !errors.Is(err, datastore.ErrNotFound) {
			t.Errorf("source still present after Move: %v", err)
		}
		got, err := s.Get("done", "frame1")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "rdf" {
			t.Errorf("moved value = %q", got)
		}
		if err := s.Move("new", "frame1", "done"); !errors.Is(err, datastore.ErrNotFound) {
			t.Errorf("Move of missing key = %v, want ErrNotFound", err)
		}
	})

	t.Run("MoveOverwritesDestination", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		if err := s.Put("src", "k", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("dst", "k", []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := s.Move("src", "k", "dst"); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("dst", "k")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "new" {
			t.Errorf("Move did not overwrite: %q", got)
		}
	})

	t.Run("MoveWithinNamespaceKeepsValue", func(t *testing.T) {
		// A move onto the key's own namespace is a no-op, as a Redis RENAME
		// of a key onto itself is.
		s := mk(t)
		defer closeStore(t, s)
		if err := s.Put("ns", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Move("ns", "k", "ns"); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("ns", "k")
		if err != nil {
			t.Fatalf("Get after self-move: %v", err)
		}
		if string(got) != "v" {
			t.Errorf("value after self-move = %q, want v", got)
		}
		keys, err := s.Keys("ns")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 || keys[0] != "k" {
			t.Errorf("Keys after self-move = %v, want [k]", keys)
		}
	})

	t.Run("ManyKeysScanExact", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		const n = 200
		for i := 0; i < n; i++ {
			if err := s.Put("bulk", fmt.Sprintf("key-%04d", i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		keys, err := s.Keys("bulk")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != n {
			t.Fatalf("Keys = %d entries, want %d", len(keys), n)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if k != fmt.Sprintf("key-%04d", i) {
				t.Fatalf("keys[%d] = %q", i, k)
			}
		}
	})

	t.Run("ConcurrentPutGet", func(t *testing.T) {
		s := mk(t)
		defer closeStore(t, s)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					k := fmt.Sprintf("w%d-i%d", w, i)
					if err := s.Put("conc", k, []byte(k)); err != nil {
						errs <- err
						return
					}
					v, err := s.Get("conc", k)
					if err != nil {
						errs <- err
						return
					}
					if string(v) != k {
						errs <- fmt.Errorf("read back %q for key %q", v, k)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		keys, err := s.Keys("conc")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != workers*25 {
			t.Errorf("Keys = %d, want %d", len(keys), workers*25)
		}
	})
}

// closeStore closes s at the end of a subtest and fails the test if the
// backend reports a close error — a store that cannot flush cleanly has
// lost data (errdiscipline).
func closeStore(t *testing.T, s datastore.Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
