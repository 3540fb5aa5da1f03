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
