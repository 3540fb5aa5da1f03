package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mummi/internal/dynim"
)

// TestEveryCheckpointFieldIsRestored holds the record to "only what a
// restore reads": for each field of CouplingCheckpoint, a record with only
// that field set (beside the name that routes it) must restore to coupling
// stats different from the bare record's. A field something writes and
// nothing reads fails here.
func TestEveryCheckpointFieldIsRestored(t *testing.T) {
	const name = "continuum-to-cg"
	restore := func(c CouplingCheckpoint) (CouplingStats, error) {
		r := newRig(t, 1)
		w, err := New(Config{Clock: r.clk, Conductor: r.cond,
			Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RestoreCoupling(c); err != nil {
			return CouplingStats{}, err
		}
		return w.Stats()[0], nil
	}
	bare, err := restore(CouplingCheckpoint{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(CouplingCheckpoint{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		c := CouplingCheckpoint{Name: name}
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Interface().(type) {
		case string:
			v.SetString("ghost")
		case int:
			v.SetInt(3)
		case []dynim.Point:
			v.Set(reflect.ValueOf([]dynim.Point{{ID: "p", Coords: []float64{1}}}))
		default:
			t.Fatalf("field %s has type %s: teach this test to set it", field.Name, field.Type)
		}
		got, err := restore(c)
		if field.Name == "Name" {
			// The name routes the record; a different one must not land here.
			if err == nil {
				t.Errorf("record named %q restored into %q", c.Name, name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", field.Name, err)
		}
		if got == bare {
			t.Errorf("field %s is write-only: restoring it changes nothing (%+v)", field.Name, got)
		}
	}
}

// TestCheckpointSizeIgnoresQueuedCandidates: the checkpoint holds selected
// configurations only, so its size does not grow with the selector's queue.
func TestCheckpointSizeIgnoresQueuedCandidates(t *testing.T) {
	r := newRig(t, 2)
	sel, err := dynim.NewBinned([]dynim.BinDim{{Lo: 0, Hi: 1, Bins: 8}}, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(sel, 4, 4)}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	queue := func(upTo int) {
		for ; next < upTo; next++ {
			p := dynim.Point{ID: fmt.Sprintf("f%05d", next), Coords: []float64{float64(next%97) / 97}}
			if err := w.AddCandidate("continuum-to-cg", p); err != nil {
				t.Fatal(err)
			}
		}
	}
	size := func() int {
		ck, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return len(ck)
	}
	queue(20)
	w.Start()
	r.clk.RunFor(4 * time.Hour) // setups done, sims running
	w.Stop()
	if st := w.Stats()[0]; st.Running == 0 || st.Ready+st.InSetup == 0 {
		t.Fatalf("nothing in flight to checkpoint: %+v", st)
	}
	queue(next + 10)
	small := size()
	queue(next + 9990)
	if got := sel.Len(); got < 10000 {
		t.Fatalf("selector queues %d candidates, want >= 10000", got)
	}
	if large := size(); large != small {
		t.Errorf("checkpoint grew with the candidate queue: %d bytes with 10 queued, %d with 10,000", small, large)
	}
}
