package dynim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFPSCampaignTraffic drives the sampler with the traffic the
// replay-paper ledger shows for a patch queue (bench/README.md): a queue
// sitting at the paper's 35,000 cap, about 158 offers arriving per
// selection (core.candidates / core.selections), one pick at a time, and
// the batched eviction firing every few picks as the offers push past the
// cap. The workflow never calls Update; ranks are
// refreshed by Select and by eviction, and that is what is timed here.
func BenchmarkFPSCampaignTraffic(b *testing.B) {
	const dim, capacity, addsPerSelect = 9, 35000, 158
	rng := rand.New(rand.NewSource(42))
	point := func(i int) Point {
		c := make([]float64, dim)
		for k := range c {
			c[k] = rng.NormFloat64()
		}
		return Point{ID: fmt.Sprintf("p%08d", i), Coords: c}
	}
	fp := NewFarthestPoint(dim, capacity)
	for i := 0; i < capacity; i++ {
		if err := fp.Add(point(i)); err != nil {
			b.Fatal(err)
		}
	}
	fp.Select(128)
	offers := make([]Point, b.N*addsPerSelect)
	for i := range offers {
		offers[i] = point(capacity + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range offers[i*addsPerSelect : (i+1)*addsPerSelect] {
			if err := fp.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if len(fp.Select(1)) != 1 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkFPSOfferBelowMark prices Add's exact fallback: an offer whose ID
// sorts at or below every ID the queue has admitted is checked against the
// selected set and scanned for in the queue's 35,000 IDs before it is taken.
// Each offer here is a never-seen ID below the mark, so each pays the whole
// scan; no producer in the tree offers one (TestPatchIDsAscend).
func BenchmarkFPSOfferBelowMark(b *testing.B) {
	const dim, capacity = 9, 35000
	rng := rand.New(rand.NewSource(42))
	point := func(id string) Point {
		c := make([]float64, dim)
		for k := range c {
			c[k] = rng.NormFloat64()
		}
		return Point{ID: id, Coords: c}
	}
	fp := NewFarthestPoint(dim, capacity)
	for i := 0; i < capacity; i++ {
		if err := fp.Add(point(fmt.Sprintf("p%08d", i))); err != nil {
			b.Fatal(err)
		}
	}
	fp.Select(128)
	offers := make([]Point, b.N)
	for i := range offers {
		offers[i] = point(fmt.Sprintf("o%08d", i)) // "o" < "p": below the mark
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, p := range offers {
		if err := fp.Add(p); err != nil {
			b.Fatal(err)
		}
	}
}
