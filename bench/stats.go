package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own few statistics rather than importing
// internal/stats: a change to the program must not change how it is measured.

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max - min) / median: the whole range, because with three reps
// there are no quartiles to take.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of s, which must be
// sorted.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
