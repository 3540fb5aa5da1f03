package dynim

import (
	"fmt"
	"testing"
)

func TestQueueSetAsSelector(t *testing.T) {
	qs := NewQueueSet(1, 0)
	sel := qs.AsSelector(func(p Point) string {
		if p.Coords[0] < 50 {
			return "low"
		}
		return "high"
	})
	for i := 0; i < 10; i++ {
		if err := sel.Add(Point{ID: fmt.Sprintf("p%02d", i), Coords: []float64{float64(i * 10)}}); err != nil {
			t.Fatal(err)
		}
	}
	if sel.Len() != 10 {
		t.Errorf("Len = %d", sel.Len())
	}
	if got := qs.Queues(); len(got) != 2 {
		t.Fatalf("queues = %v", got)
	}
	// Routing is respected: "low" holds coords 0..40, "high" 50..90.
	low := qs.SelectFrom("low", 100)
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
	qs.Update() // must not panic on drained queues
	if h := sel.History(); len(h) == 0 {
		t.Error("merged history empty")
	}
}

func TestQueueSetDisableJournalPropagates(t *testing.T) {
	qs := NewQueueSet(1, 0)
	qs.Add("pre", Point{ID: "a", Coords: []float64{1}})
	qs.DisableJournal()
	qs.Add("pre", Point{ID: "b", Coords: []float64{2}})
	qs.Add("post", Point{ID: "c", Coords: []float64{3}}) // new queue after disable
	sel := qs.AsSelector(func(Point) string { return "pre" })
	h := sel.History()
	// Only the one event recorded before DisableJournal survives.
	if len(h) != 1 || h[0].ID != "a" {
		t.Errorf("history = %v", h)
	}
}

func TestFPSDisableJournal(t *testing.T) {
	f := NewFarthestPoint(1, 0)
	f.Add(Point{ID: "a", Coords: []float64{1}})
	f.DisableJournal()
	f.Add(Point{ID: "b", Coords: []float64{2}})
	f.Select(2)
	h := f.History()
	if len(h) != 1 {
		t.Errorf("history after disable = %v", h)
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
