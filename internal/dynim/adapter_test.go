package dynim

import (
	"fmt"
	"math"
	"testing"
)

func TestQueueSetIsSelector(t *testing.T) {
	var sel Selector = NewQueueSet(1, 0, func(p Point) string {
		if p.Coords[0] < 50 {
			return "low"
		}
		return "high"
	})
	qs := sel.(*QueueSet)
	for i := 0; i < 10; i++ {
		if err := sel.Add(Point{ID: fmt.Sprintf("p%02d", i), Coords: []float64{float64(i * 10)}}); err != nil {
			t.Fatal(err)
		}
	}
	if sel.Len() != 10 {
		t.Errorf("Len = %d", sel.Len())
	}
	if len(qs.order) != 2 {
		t.Fatalf("queues = %v", qs.order)
	}
	// Routing is respected: "low" holds coords 0..40, "high" 50..90.
	low := qs.queues["low"].Select(100)
	for _, p := range low {
		if p.Coords[0] >= 50 {
			t.Errorf("misrouted point %v", p)
		}
	}
	if len(low) != 5 {
		t.Errorf("low queue had %d", len(low))
	}
	// Selector-level Select round-robins what remains.
	rest := sel.Select(10)
	if len(rest) != 5 {
		t.Errorf("Select drained %d", len(rest))
	}
}

// TestQueueSetRejectedPointMakesNoQueue: a point its queue would refuse —
// wrong dimension, non-finite coordinate — is refused before it is routed,
// so it leaves no empty queue for every later round-robin pass to visit.
func TestQueueSetRejectedPointMakesNoQueue(t *testing.T) {
	qs := NewQueueSet(2, 0, func(p Point) string { return p.ID })
	for _, p := range []Point{
		{ID: "short", Coords: []float64{1}},
		{ID: "nan", Coords: []float64{math.NaN(), 0}},
	} {
		if err := qs.Add(p); err == nil {
			t.Errorf("%s accepted", p.ID)
		}
	}
	if len(qs.queues) != 0 || len(qs.order) != 0 {
		t.Errorf("refused points left queues %v", qs.order)
	}
}

// TestBinnedTrackDuplicatesToggle: Binned keeps no ID set, so duplicate
// tracking is always off — a re-offered ID is queued and selected again.
func TestBinnedTrackDuplicatesToggle(t *testing.T) {
	b, err := NewBinned([]BinDim{{0, 10, 5}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(Point{ID: "dup", Coords: []float64{1}})
	b.Add(Point{ID: "dup", Coords: []float64{1}})
	if b.Len() != 2 {
		t.Errorf("Len after a re-offer = %d, want 2", b.Len())
	}
	got := b.Select(2)
	if len(got) != 2 || got[0].ID != "dup" || got[1].ID != "dup" {
		t.Errorf("Select(2) = %v, want both offers of dup", got)
	}
	if b.Len() != 0 {
		t.Errorf("Len after selecting both = %d, want 0", b.Len())
	}
}

func TestFPSBatchEvictionKeepsMostNovel(t *testing.T) {
	// With a larger capacity the eviction batches: after overflowing by the
	// slack amount, the survivors must be the highest-ranked candidates.
	f := NewFarthestPoint(1, 64)
	f.Add(Point{ID: "ref", Coords: []float64{0}})
	f.Select(1) // reference point at 0
	// Add 200 candidates at increasing distance from the reference.
	for i := 1; i <= 200; i++ {
		f.Add(Point{ID: fmt.Sprintf("p%03d", i), Coords: []float64{float64(i)}})
		f.Update() // keep ranks fresh so eviction sees true distances
	}
	if f.Len() > 64+4 {
		t.Errorf("queue holds %d, cap 64 (+slack)", f.Len())
	}
	// The far candidates must have survived; the near ones are gone.
	sel := f.Select(5)
	for _, p := range sel {
		if p.Coords[0] < 130 {
			t.Errorf("low-novelty candidate %v survived eviction", p)
		}
	}
}
