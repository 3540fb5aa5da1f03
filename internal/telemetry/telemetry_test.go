package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mummi/internal/vclock"
)

func testEpoch() time.Time {
	return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
}

func TestNameRendering(t *testing.T) {
	if got := Name("wm.polls_total"); got != "wm.polls_total" {
		t.Fatalf("bare name: got %q", got)
	}
	got := Name("wm.sims_total", "coupling", "cg", "state", "done")
	want := "wm.sims_total{coupling=cg,state=done}"
	if got != want {
		t.Fatalf("labeled name: got %q want %q", got, want)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 6 {
		t.Fatalf("counter value: got %d want 6", got)
	}
}

// TestLazyCounterResolvesOnFirstGet: a Lazy handle of each metric kind
// registers its metric at the first Get, not before, so a snapshot taken
// before any event lacks it exactly as it would without the handle; later
// Gets, concurrent ones included, return the same metric and register
// nothing more.
func TestLazyCounterResolvesOnFirstGet(t *testing.T) {
	metrics := func(tel *Telemetry) int {
		s := tel.Registry().Snapshot()
		return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	check := func(t *testing.T, get func(tel *Telemetry, base string, labels ...string) any, lookup func(tel *Telemetry, name string) any) {
		tel := Nop()
		if n := metrics(tel); n != 0 {
			t.Fatalf("registry holds %d metrics before the first Get", n)
		}
		first := get(tel, "wm.ready", "coupling", "cg")
		if n := metrics(tel); n != 1 {
			t.Fatalf("registry holds %d metrics after the first Get, want 1", n)
		}
		if want := lookup(tel, "wm.ready{coupling=cg}"); first != want {
			t.Fatalf("first Get = %p, want the registry's %p", first, want)
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if m := get(tel, "ignored"); m != first {
					t.Errorf("a later Get = %p, want %p", m, first)
				}
			}()
		}
		wg.Wait()
		if n := metrics(tel); n != 1 {
			t.Fatalf("registry holds %d metrics, want 1: later Gets must not resolve again", n)
		}
	}
	t.Run("counter", func(t *testing.T) {
		var l Lazy[Counter]
		check(t, func(tel *Telemetry, base string, labels ...string) any { return l.Get(tel, base, labels...) },
			func(tel *Telemetry, name string) any { return tel.Registry().Counter(name) })
	})
	t.Run("gauge", func(t *testing.T) {
		var l Lazy[Gauge]
		check(t, func(tel *Telemetry, base string, labels ...string) any { return l.Get(tel, base, labels...) },
			func(tel *Telemetry, name string) any { return tel.Registry().Gauge(name) })
	})
	t.Run("histogram", func(t *testing.T) {
		var l Lazy[Histogram]
		check(t, func(tel *Telemetry, base string, labels ...string) any { return l.Get(tel, base, labels...) },
			func(tel *Telemetry, name string) any { return tel.Registry().Histogram(name) })
	})
}

func TestGaugeLastWriteWins(t *testing.T) {
	var g Gauge
	if got := g.Value(); got != 0 {
		t.Fatalf("zero gauge: got %g", got)
	}
	g.Set(3.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Fatalf("gauge value: got %g", got)
	}
}

func TestHistogramBucketsAndClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{0.005, 0.01, 5, 50, 500, 1e5, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(s.Histograms))
	}
	hs := s.Histograms[0]
	if hs.Unit != "ms" || !slices.Equal(hs.Bounds, LatencyBucketsMs[:]) {
		t.Fatalf("layout: unit %q bounds %v", hs.Unit, hs.Bounds)
	}
	// NaN and +Inf clamp to 0 → first bucket. Bounds are inclusive upper
	// limits (SearchFloat64s), so 0.01 lands in the first bucket too, and
	// 1e5 overflows into the trailing +Inf bucket.
	wantCounts := make([]int64, len(LatencyBucketsMs)+1)
	wantCounts[0], wantCounts[5], wantCounts[7], wantCounts[9], wantCounts[14] = 4, 1, 1, 1, 1
	if !slices.Equal(hs.Counts, wantCounts) {
		t.Fatalf("buckets: got %v want %v", hs.Counts, wantCounts)
	}
	if hs.Count != 8 || hs.Min != 0 || hs.Max != 1e5 {
		t.Fatalf("stream stats: count=%d min=%g max=%g", hs.Count, hs.Min, hs.Max)
	}
}

// TestSnapshotDeterministicUnderConcurrency drives many concurrent writers
// at one registry and checks (under -race) that the final snapshot bytes
// are identical to a sequentially-built registry recording the same
// totals. This is the determinism contract the campaign relies on: metric
// identity and ordering never depend on goroutine interleaving.
func TestSnapshotDeterministicUnderConcurrency(t *testing.T) {
	build := func(concurrent bool) []byte {
		r := NewRegistry()
		const workers = 8
		const perWorker = 200
		work := func(id int) {
			for i := 0; i < perWorker; i++ {
				r.Counter(Name("ops_total", "worker", "w")).Inc()
				r.Gauge("depth").Set(42)
				r.Histogram("lat_ms").Observe(float64(i % 7))
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) { defer wg.Done(); work(id) }(w)
			}
			wg.Wait()
		} else {
			for w := 0; w < workers; w++ {
				work(w)
			}
		}
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	seq := build(false)
	for trial := 0; trial < 4; trial++ {
		if got := build(true); !bytes.Equal(got, seq) {
			t.Fatalf("trial %d: concurrent snapshot differs\nconcurrent: %s\nsequential: %s", trial, got, seq)
		}
	}
}

// TestSnapshotWhileRegistering snapshots the registry while other goroutines
// create counters, gauges and histograms under new names. A Snapshot that
// reads the name maps without r.mu races those inserts, which -race reports
// (and which can crash a plain run as a concurrent map read and write).
func TestSnapshotWhileRegistering(t *testing.T) {
	const writers, names = 2, 300
	r := NewRegistry()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				n := Name("new_total", "writer", strconv.Itoa(w), "i", strconv.Itoa(i))
				r.Counter(n).Inc()
				r.Gauge(n).Set(1)
				r.Histogram(n).Observe(1)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for snapping := true; snapping; {
		select {
		case <-done:
			snapping = false
		default:
		}
		// A writer registers each name as a counter, a gauge, then a
		// histogram, and one snapshot reads all three sections at once: only
		// each writer's name in flight can be missing from the later ones.
		s := r.Snapshot()
		c, g, h := len(s.Counters), len(s.Gauges), len(s.Histograms)
		if c < g || g < h || c-h > writers {
			t.Fatalf("snapshot sections hold %d / %d / %d metrics", c, g, h)
		}
	}
	s := r.Snapshot()
	if want := writers * names; len(s.Counters) != want || len(s.Gauges) != want || len(s.Histograms) != want {
		t.Fatalf("final snapshot holds %d / %d / %d metrics, want %d each",
			len(s.Counters), len(s.Gauges), len(s.Histograms), want)
	}
}

func TestTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Inc()
	r.Counter("a_total").Add(2)
	r.Gauge("m").Set(1.5)
	text := r.Text()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	want := []string{"a_total 2", "z_total 1", "m 1.5"}
	if len(lines) != len(want) {
		t.Fatalf("line count: got %d want %d\n%s", len(lines), len(want), text)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d: got %q want %q", i, lines[i], want[i])
		}
	}
}

// TestTraceExportGolden records a small deterministic span set on a
// virtual clock and checks the exported Chrome trace-event JSON byte for
// byte. The golden string doubles as schema documentation: metadata
// thread_name events first (one per category, tid in sorted-category
// order), then ph:"X" complete events with microsecond ts/dur.
func TestTraceExportGolden(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch())
	tel := New(Options{Trace: true})
	tel.SetClock(clk)

	clk.After(2*time.Millisecond, func() {
		sp := tel.StartSpan("wm", "task1.ingest").Arg("coupling", "cg")
		clk.After(time.Millisecond, func() { sp.End() })
	})
	clk.After(5*time.Millisecond, func() {
		tel.RecordSpan("sched", "match", tel.Now(), 250*time.Microsecond, "visits", 3)
	})
	for clk.Step() {
	}

	var buf bytes.Buffer
	if err := tel.Tracer().Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	golden := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"sched"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"wm"}},` +
		`{"name":"task1.ingest","cat":"wm","ph":"X","ts":2000,"dur":1000,"pid":1,"tid":2,"args":{"coupling":"cg"}},` +
		`{"name":"match","cat":"sched","ph":"X","ts":5000,"dur":250,"pid":1,"tid":1,"args":{"visits":3}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != golden {
		t.Fatalf("trace JSON mismatch\ngot:    %s\nwanted: %s", got, golden)
	}
}

// TestTraceExportSchema validates the export against the trace-event
// format contract: top-level traceEvents array, every event carries a
// valid ph, complete events have non-negative ts/dur, metadata events
// name threads that complete events actually use.
func TestTraceExportSchema(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch())
	tel := New(Options{Trace: true})
	tel.SetClock(clk)
	for i := 0; i < 10; i++ {
		tel.RecordSpan("cat", "op", tel.Now(), time.Duration(i)*time.Millisecond)
		clk.RunFor(time.Second)
	}

	var buf bytes.Buffer
	if err := tel.Tracer().Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit: got %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 11 { // 1 metadata + 10 spans
		t.Fatalf("event count: got %d want 11", len(doc.TraceEvents))
	}
	namedTIDs := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			namedTIDs[e.TID] = true
		case "X":
			if e.TS < 0 || e.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", e)
			}
			if !namedTIDs[e.TID] {
				t.Fatalf("complete event on unnamed tid %d", e.TID)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
		if e.PID != 1 {
			t.Fatalf("pid: got %d", e.PID)
		}
	}
}

func TestTraceCapDrops(t *testing.T) {
	tel := New(Options{Trace: true})
	tel.SetClock(vclock.NewVirtual(testEpoch()))
	tel.tracer = newTracer(&tel.clk, 3) // traceCap's drop path, at a testable size
	for i := 0; i < 5; i++ {
		tel.RecordSpan("c", "op", tel.Now(), 0)
	}
	tr := tel.Tracer()
	if tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("cap: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !strings.Contains(buf.String(), `"mummiDroppedSpans":2`) {
		t.Fatalf("dropped marker missing: %s", buf.String())
	}
}

func TestNilSpanSafe(t *testing.T) {
	tel := Nop()
	if tel.Tracing() {
		t.Fatal("Nop should not trace")
	}
	sp := tel.StartSpan("c", "op")
	if sp != nil {
		t.Fatal("StartSpan should return nil when tracing is off")
	}
	sp.Arg("k", "v").End() // must not panic
	tel.RecordSpan("c", "op", tel.Now(), time.Second)
}

func TestSetClockRebindsAndRebases(t *testing.T) {
	tel := New(Options{Trace: true})
	clk := vclock.NewVirtual(testEpoch())
	clk.RunFor(time.Hour) // advance before binding
	tel.SetClock(clk)
	if !tel.Now().Equal(clk.Now()) {
		t.Fatalf("clock not rebound: tel=%v clk=%v", tel.Now(), clk.Now())
	}
	tel.RecordSpan("c", "op", tel.Now(), time.Millisecond)
	var buf bytes.Buffer
	if err := tel.Tracer().Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	// Epoch was rebased to the bind time, so the span's ts is 0, not 1h.
	if !strings.Contains(buf.String(), `"cat":"c","ph":"X","ts":0`) {
		t.Fatalf("epoch not rebased: %s", buf.String())
	}
}

func TestSpanNames(t *testing.T) {
	tel := New(Options{Trace: true})
	tel.SetClock(vclock.NewVirtual(testEpoch()))
	tel.RecordSpan("a", "zeta", tel.Now(), 0)
	tel.RecordSpan("b", "alpha", tel.Now(), 0)
	tel.RecordSpan("a", "zeta", tel.Now(), 0)
	got := tel.Tracer().SpanNames()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("span names: %v", got)
	}
}

func TestHeartbeat(t *testing.T) {
	clk := vclock.NewVirtual(testEpoch())
	var mu sync.Mutex
	var buf bytes.Buffer
	hb := NewHeartbeat(clk, time.Minute, writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), func(now time.Time) string {
		return "hb " + now.Format("15:04")
	})
	clk.RunFor(3*time.Minute + time.Second)
	hb.Stop()
	clk.RunFor(10 * time.Minute)
	mu.Lock()
	defer mu.Unlock()
	want := "hb 00:01\nhb 00:02\nhb 00:03\n"
	if buf.String() != want {
		t.Fatalf("heartbeat output:\ngot:  %q\nwant: %q", buf.String(), want)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
