package datastore_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/datastore/dstest"
	"mummi/internal/retry"
	"mummi/internal/telemetry"
)

// flakyStore errors transiently N times per operation key before letting the
// call through to the wrapped store — the "errors N times then succeeds"
// double of the conformance suite.
type flakyStore struct {
	datastore.Store
	mu        sync.Mutex
	failures  int // transient failures served before each op succeeds
	remaining map[string]int
}

func newFlaky(inner datastore.Store, failures int) *flakyStore {
	return &flakyStore{Store: inner, failures: failures, remaining: make(map[string]int)}
}

func (f *flakyStore) trip(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	left, ok := f.remaining[op]
	if !ok {
		left = f.failures
	}
	if left > 0 {
		f.remaining[op] = left - 1
		return fmt.Errorf("flaky %s: %w", op, datastore.ErrTransient)
	}
	f.remaining[op] = f.failures // re-arm for the next call of this op
	return nil
}

func (f *flakyStore) Put(ns, key string, data []byte) error {
	if err := f.trip("put/" + ns + "/" + key); err != nil {
		return err
	}
	return f.Store.Put(ns, key, data)
}

func (f *flakyStore) Get(ns, key string) ([]byte, error) {
	if err := f.trip("get/" + ns + "/" + key); err != nil {
		return nil, err
	}
	return f.Store.Get(ns, key)
}

func (f *flakyStore) Delete(ns, key string) error {
	if err := f.trip("delete/" + ns + "/" + key); err != nil {
		return err
	}
	return f.Store.Delete(ns, key)
}

func (f *flakyStore) Keys(ns string) ([]string, error) {
	if err := f.trip("keys/" + ns); err != nil {
		return nil, err
	}
	return f.Store.Keys(ns)
}

func (f *flakyStore) Move(srcNS, key, dstNS string) error {
	if err := f.trip("move/" + srcNS + "/" + key); err != nil {
		return err
	}
	return f.Store.Move(srcNS, key, dstNS)
}

// TestArmorConformance runs the full Store conformance suite over an
// Armor-wrapped memory store — and again over a flaky double whose every
// operation fails transiently twice before succeeding, which the armor's
// default budget (4 attempts) must absorb invisibly.
func TestArmorConformance(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		dstest.Run(t, func(t *testing.T) datastore.Store {
			return datastore.Armor(datastore.NewMemory(), telemetry.Nop(), "memory", datastore.ArmorOptions{})
		})
	})
	t.Run("flaky-twice", func(t *testing.T) {
		dstest.Run(t, func(t *testing.T) datastore.Store {
			return datastore.Armor(newFlaky(datastore.NewMemory(), 2), telemetry.Nop(), "memory", datastore.ArmorOptions{})
		})
	})
}

func TestArmorRetriesTransientThenSucceeds(t *testing.T) {
	tel := telemetry.Nop()
	flaky := newFlaky(datastore.NewMemory(), 2)
	s := datastore.Armor(flaky, tel, "memory", datastore.ArmorOptions{})
	if err := s.Put("ns", "k", []byte("v")); err != nil {
		t.Fatalf("put through armor: %v", err)
	}
	got, err := s.Get("ns", "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get through armor: %q %v", got, err)
	}
	reg := tel.Registry()
	// Two transient failures per op, two ops: four retries, zero give-ups.
	if got := reg.Counter("store.retries_total{backend=memory}").Value(); got != 4 {
		t.Errorf("retries_total = %d, want 4", got)
	}
	if got := reg.Counter("store.gaveup_total{backend=memory}").Value(); got != 0 {
		t.Errorf("gaveup_total = %d, want 0", got)
	}
}

func TestArmorGivesUpAfterBudget(t *testing.T) {
	tel := telemetry.Nop()
	flaky := newFlaky(datastore.NewMemory(), 100) // more failures than any budget
	s := datastore.Armor(flaky, tel, "memory", datastore.ArmorOptions{})
	err := s.Put("ns", "k", []byte("v"))
	if !errors.Is(err, datastore.ErrTransient) {
		t.Fatalf("want transient error to surface after budget, got %v", err)
	}
	reg := tel.Registry()
	if got := reg.Counter("store.retries_total{backend=memory}").Value(); got != 3 {
		t.Errorf("retries_total = %d, want 3 (4 attempts)", got)
	}
	if got := reg.Counter("store.gaveup_total{backend=memory}").Value(); got != 1 {
		t.Errorf("gaveup_total = %d, want 1", got)
	}
}

func TestArmorDoesNotRetryPermanentOrMiss(t *testing.T) {
	tel := telemetry.Nop()
	s := datastore.Armor(datastore.NewMemory(), tel, "memory", datastore.ArmorOptions{})
	if _, err := s.Get("ns", "missing"); !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("miss: %v", err)
	}
	if err := s.Delete("ns", "missing"); !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("delete miss: %v", err)
	}
	reg := tel.Registry()
	if got := reg.Counter("store.retries_total{backend=memory}").Value(); got != 0 {
		t.Errorf("retries_total = %d, want 0 (ErrNotFound is permanent)", got)
	}
	if got := reg.Counter("store.gaveup_total{backend=memory}").Value(); got != 0 {
		t.Errorf("gaveup_total = %d, want 0", got)
	}
}

func TestArmorSleepHookReceivesBackoff(t *testing.T) {
	var slept []time.Duration
	flaky := newFlaky(datastore.NewMemory(), 2)
	s := datastore.Armor(flaky, telemetry.Nop(), "memory", datastore.ArmorOptions{
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err := s.Put("ns", "k", nil); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("sleep hook called %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if want := retry.Backoff(i + 1); d != want {
			t.Errorf("backoff %d = %v, want deterministic %v", i+1, d, want)
		}
	}
}
