package main

import (
	"sort"
	"time"
)

// The host probe is a fixed amount of work owned by the benchmark, run
// before and after every rep to tell a quiet host from a busy one. It is
// throughput-bound like the replays — floating-point sums with four
// independent accumulators over a 4 MB array, then a map and allocation
// loop — and never calls program code, so a change to the program cannot
// move it. A kernel with one serial dependency chain was tried first and
// under-reacts: +10% when the replay beside it was +18%.
const (
	probeSegments = 5
	probeFloats   = 512 << 10 // 4 MB of float64
	probePasses   = 500
	probeMapOps   = 2_500_000
)

var probeSink float64

// probeSegment does one fifth of the probe's work.
func probeSegment(data []float64) {
	var a0, a1, a2, a3 float64
	for p := 0; p < probePasses; p++ {
		for i := 0; i+3 < len(data); i += 4 {
			a0 += data[i] * 1.0000001
			a1 += data[i+1] * 0.9999999
			a2 += data[i+2] * 1.0000002
			a3 += data[i+3] * 0.9999998
		}
	}
	m := make(map[int]*[48]byte)
	for i := 0; i < probeMapOps; i++ {
		m[i&0xfff] = &[48]byte{byte(i)}
		if i&7 == 0 {
			delete(m, (i>>3)&0xfff)
		}
	}
	probeSink += a0 + a1 + a2 + a3 + float64(len(m))
}

// A prober owns the probe's array, so that every reading after the first
// starts from the same heap.
type prober struct{ data []float64 }

// newProber allocates the array and runs the probe once untimed: the first
// second of work after the process has sat idle reads 5 to 15% slow (page
// faults, a heap still growing, a core coming out of idle), which would mark
// the first rep of every invocation noisy.
func newProber() *prober {
	p := &prober{data: make([]float64, probeFloats)}
	for i := range p.data {
		p.data[i] = float64(i&1023) * 0.001
	}
	p.run()
	return p
}

// run does the probe's work (about one second on a quiet host) and returns
// the median segment time in milliseconds.
func (p *prober) run() float64 {
	ms := make([]float64, probeSegments)
	for s := range ms {
		t0 := time.Now()
		probeSegment(p.data)
		ms[s] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms[probeSegments/2]
}
