package kvstore

import (
	"fmt"
	"testing"
)

func TestRingDistribution(t *testing.T) {
	const shards, keys = 4, 100000
	r := NewRing(shards)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("frame:%06d", i))]++
	}
	// With 128 vnodes per shard the max/mean ownership ratio stays modest;
	// every shard must own a substantial share.
	for s, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.40 {
			t.Errorf("shard %d owns %.3f of keys, want roughly 1/%d", s, frac, shards)
		}
	}
}

func TestRingStabilityUnderGrowth(t *testing.T) {
	const keys = 20000
	small, big := NewRing(4), NewRing(5)
	moved, stolen := 0, 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%05d", i)
		a, b := small.Lookup(k), big.Lookup(k)
		if a != b {
			moved++
			if b != 4 {
				// Consistency property: growing the ring may only move keys
				// onto the new shard, never shuffle them between old shards.
				t.Fatalf("key %q moved between old shards: %d -> %d", k, a, b)
			}
			stolen++
		}
	}
	// The new shard should steal roughly its fair 1/5 share.
	frac := float64(stolen) / keys
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("new shard stole %.3f of keys, want ~0.20", frac)
	}
}

func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(7), NewRing(7)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("rings disagree on %q", k)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r := NewRing(1)
	for i := 0; i < 100; i++ {
		if got := r.Lookup(fmt.Sprintf("k%d", i)); got != 0 {
			t.Fatalf("single-shard ring returned %d", got)
		}
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(20)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("pfu:new:frame-%06d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(keys[i&511])
	}
}
