package telemetry

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Name renders a metric name with labels in the canonical
// base{k1=v1,k2=v2} form. Labels are alternating key, value pairs and are
// emitted in the order given; callers use a fixed order so the same
// logical metric always maps to the same registry entry.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing int64 metric. Safe for concurrent
// use; the value is read atomically at snapshot time.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metric is the set of registry metric kinds.
type metric interface{ Counter | Gauge | Histogram }

// Lazy is a metric handle resolved on its first Get and cached from then
// on: a per-event call site builds the metric name and takes the registry
// lock once, not once per event, and the registry still gains the metric
// at that first event, so snapshots are the same as without the handle.
// The zero value is ready; safe for concurrent use.
type Lazy[M metric] struct{ m atomic.Pointer[M] }

// Get returns the metric Name(base, labels...) in t, resolving it on the
// first call; later calls return that metric and ignore their arguments.
func (l *Lazy[M]) Get(t *Telemetry, base string, labels ...string) *M {
	if m := l.m.Load(); m != nil {
		return m
	}
	return l.resolve(t, Name(base, labels...))
}

func (l *Lazy[M]) resolve(t *Telemetry, name string) *M {
	var m any
	switch any((*M)(nil)).(type) {
	case *Counter:
		m = t.reg.Counter(name)
	case *Gauge:
		m = t.reg.Gauge(name)
	case *Histogram:
		m = t.reg.Histogram(name)
	}
	l.m.Store(m.(*M))
	return m.(*M)
}

// Gauge is a last-write-wins float64 metric (queue depth, occupancy).
// Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket millisecond histogram: LatencyBucketsMs are
// its ascending bucket upper limits and an implicit +Inf bucket catches the
// overflow, so every histogram's snapshot has the same shape.
// Observations also stream count/sum/min/max. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [len(LatencyBucketsMs) + 1]int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample. Non-finite samples are clamped to 0 so a
// poisoned measurement cannot spread NaN through the snapshot.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	i := sort.SearchFloat64s(LatencyBucketsMs[:], v)
	h.mu.Lock()
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// LatencyBucketsMs is every histogram's bucket layout, in milliseconds:
// roughly exponential from 10 µs to one minute.
var LatencyBucketsMs = [...]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// Registry is a deterministic metrics registry: metrics are created on
// first use and snapshots render them in sorted name order, so two runs
// that record the same values produce byte-identical snapshots.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return lookup(r, r.counters, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return lookup(r, r.gauges, name) }

// Histogram returns the named histogram, creating it on first use. Every
// histogram is in milliseconds over LatencyBucketsMs.
func (r *Registry) Histogram(name string) *Histogram { return lookup(r, r.hists, name) }

// lookup returns the metric m holds under name, creating it on first use.
func lookup[M metric](r *Registry, m map[string]*M, name string) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(M)
		m[name] = v
	}
	return v
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram in a Snapshot. Counts has one entry per
// bound plus the trailing +Inf bucket.
type HistogramSnap struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot is a point-in-time copy of every metric, each section sorted by
// name. Marshaling a Snapshot is deterministic: identical recorded values
// yield identical bytes.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters, gauges, hists := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.hists)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistogramSnap{},
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Counters = append(s.Counters, CounterSnap{Name: n, Value: counters[n].Value()})
	}
	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: n, Value: gauges[n].Value()})
	}
	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		h.mu.Lock()
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:   n,
			Unit:   "ms",
			Bounds: append([]float64(nil), LatencyBucketsMs[:]...),
			Counts: append([]int64(nil), h.counts[:]...),
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
		})
		h.mu.Unlock()
	}
	return s
}

// MarshalJSON encodes the snapshot with stable field and entry ordering.
func (r *Registry) MarshalJSON() ([]byte, error) { return json.Marshal(r.Snapshot()) }

// Text renders the snapshot as sorted "name value" lines (and histogram
// summary lines), the format served by the -metrics-addr endpoint.
func (r *Registry) Text() string {
	s := r.Snapshot()
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%s %g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%s count=%d sum=%g min=%g max=%g %s\n",
			h.Name, h.Count, h.Sum, h.Min, h.Max, h.Unit)
	}
	return b.String()
}
