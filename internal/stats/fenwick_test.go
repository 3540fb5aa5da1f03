package stats

import (
	"math/rand"
	"testing"
)

// kthOracle is Kth by a linear prefix scan over plain counts.
func kthOracle(counts []int, k int) int {
	for i, c := range counts {
		if k < c {
			return i
		}
		k -= c
	}
	return -1
}

// TestFenwickMatchesOracle holds Add and Kth to plain counts and a linear
// scan: grown once to a size that is not a power of two, with counts above
// one (the binned sampler's queued counts per bin), and grown from empty
// as indices up to 40 past the range arrive (the campaign's live job IDs),
// every count surviving each Grow.
func TestFenwickMatchesOracle(t *testing.T) {
	check := func(t *testing.T, f *Fenwick, counts []int) {
		t.Helper()
		if n := f.Len(); n != len(counts) || n&(n-1) != 0 {
			t.Fatalf("Len = %d, want %d and a power of two", n, len(counts))
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		for k := 0; k < total; k++ {
			if got, want := f.Kth(k), kthOracle(counts, k); got != want {
				t.Fatalf("Kth(%d) = %d, want %d (counts %v)", k, got, want, counts)
			}
		}
	}
	t.Run("fixed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{1, 2, 3, 7, 27, 1000} {
			var f Fenwick
			f.Grow(n)
			counts := make([]int, f.Len())
			for op := 0; op < 400; op++ {
				i := rng.Intn(n)
				d := rng.Intn(4)
				if counts[i] > 0 && rng.Intn(2) == 0 {
					d = -min(d, counts[i])
				}
				f.Add(i, d)
				counts[i] += d
				if op%40 == 0 {
					check(t, &f, counts)
				}
			}
			check(t, &f, counts)
		}
	})
	t.Run("grow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		var f Fenwick
		var counts []int
		check(t, &f, counts)
		for step := 0; step < 300; step++ {
			// An index up to 40 past the range, as a new job ID is.
			i := rng.Intn(f.Len() + 1 + rng.Intn(2)*40)
			if i >= f.Len() {
				f.Grow(i + 1)
				if f.Len() <= i {
					t.Fatalf("Grow(%d) left Len %d", i+1, f.Len())
				}
				counts = append(counts, make([]int, f.Len()-len(counts))...)
			}
			d := 1 + rng.Intn(2)
			if counts[i] > 0 && rng.Intn(3) == 0 {
				d = -counts[i]
			}
			f.Add(i, d)
			counts[i] += d
			check(t, &f, counts)
		}
	})
}
