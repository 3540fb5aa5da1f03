package datastore

import (
	"errors"
	"testing"

	"mummi/internal/telemetry"
)

func TestInstrumentCountsOps(t *testing.T) {
	tel := telemetry.Nop()
	s := Instrument(NewMemory(), tel, "memory")

	if err := s.Put("ns", "k", []byte("hello")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := s.Get("ns", "k"); err != nil {
		t.Fatalf("get: %v", err)
	}
	if _, err := s.Get("ns", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: %v", err)
	}
	if err := s.Move("ns", "k", "done"); err != nil {
		t.Fatalf("move: %v", err)
	}

	reg := tel.Registry()
	checks := map[string]int64{
		"store.ops_total{backend=memory,op=put}":  1,
		"store.ops_total{backend=memory,op=get}":  2,
		"store.ops_total{backend=memory,op=move}": 1,
		"store.write_bytes_total{backend=memory}": 5,
		"store.read_bytes_total{backend=memory}":  5,
		"store.misses_total{backend=memory}":      1,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s: got %d want %d", name, got, want)
		}
	}
}
