package fsstore

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mummi/internal/datastore"
	"mummi/internal/datastore/dstest"
	"mummi/internal/telemetry"
)

func TestConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		s, err := New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestArmoredConformance re-runs the suite through datastore.Armor: the
// retry wrapper must be semantically invisible over a healthy backend.
func TestArmoredConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		s, err := New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return datastore.Armor(s, telemetry.Nop(), "fs", datastore.ArmorOptions{})
	})
}

func TestOpenViaFactory(t *testing.T) {
	s, err := datastore.Open(datastore.Config{Backend: datastore.BackendFS, Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ns", "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestSanitizeRejectsTraversal(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"..", ".", "", "a/b", "a\\b", "x\x00y"}
	for _, b := range bad {
		if err := s.Put(b, "k", nil); err == nil {
			t.Errorf("Put with ns %q succeeded", b)
		}
		if err := s.Put("ns", b, nil); err == nil {
			t.Errorf("Put with key %q succeeded", b)
		}
	}
}

func TestRetriesRecoverFromTransientFaults(t *testing.T) {
	var failures atomic.Int32
	failures.Store(2) // first two attempts fail, third succeeds
	s, err := New(t.TempDir(),
		WithFaultHook(func(op, path string) error {
			if op == "put" && failures.Add(-1) >= 0 {
				return errors.New("injected EIO")
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ns", "k", []byte("survived")); err != nil {
		t.Fatalf("Put with transient faults failed: %v", err)
	}
	got, err := s.Get("ns", "k")
	if err != nil || string(got) != "survived" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestRetriesExhausted(t *testing.T) {
	var puts atomic.Int32
	s, err := New(t.TempDir(),
		WithFaultHook(func(op, path string) error {
			if op == "put" {
				puts.Add(1)
				return errors.New("injected permanent EIO")
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ns", "k", []byte("x")); err == nil {
		t.Fatal("Put succeeded despite permanent faults")
	}
	if got := puts.Load(); got != 1+retries {
		t.Errorf("Put attempted %d times, want %d", got, 1+retries)
	}
}

func TestNotFoundDoesNotRetry(t *testing.T) {
	var gets atomic.Int32
	s, err := New(t.TempDir(),
		WithFaultHook(func(op, path string) error {
			if op == "get" {
				gets.Add(1)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ns", "missing"); !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("Get = %v", err)
	}
	if gets.Load() != 1 {
		t.Errorf("ErrNotFound retried %d times; should not retry", gets.Load())
	}
}

func TestKeysHidesInternalFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ns", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ns", "junk.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys("ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v, want [k]", keys)
	}
}

func TestPutIsAtomicNoPartialFiles(t *testing.T) {
	// After a failed write (fault during put), no partial primary file may
	// exist — the temp-then-rename protocol guarantees it.
	dir := t.TempDir()
	s, err := New(dir,
		WithFaultHook(func(op, path string) error {
			if op == "put" {
				return errors.New("boom")
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ns", "k", []byte("x")); err == nil {
		t.Fatal("expected injected failure")
	}
	if _, err := os.Stat(filepath.Join(dir, "ns", "k")); !errors.Is(err, os.ErrNotExist) {
		t.Error("partial primary file exists after failed Put")
	}
}

func TestMoveAcrossNamespaces(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("new", "frame", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("new", "frame", "processed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "processed", "frame")); err != nil {
		t.Errorf("moved file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "new", "frame")); !errors.Is(err, os.ErrNotExist) {
		t.Error("source file still present after Move")
	}
}

// TestRootAccessor: New roots the store at the directory it is given.
func TestRootAccessor(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.root != dir {
		t.Errorf("root = %q", s.root)
	}
}
