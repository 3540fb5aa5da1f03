package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// traceCap bounds the recorded span count. Spans beyond the cap are dropped
// and counted, never resized into unbounded memory — campaign replays
// record millions of events.
const traceCap = 1 << 20

// Arg is one key/value span argument; values must be JSON-marshalable.
type Arg struct {
	Key   string
	Value any
}

func kvArgs(kv []any) []Arg {
	if len(kv) == 0 {
		return nil
	}
	args := make([]Arg, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			k = fmt.Sprint(kv[i])
		}
		args = append(args, Arg{Key: k, Value: kv[i+1]})
	}
	return args
}

// spanEvent is one recorded complete span.
type spanEvent struct {
	name, cat string
	start     time.Time
	dur       time.Duration
	args      []Arg
}

// Tracer records spans against the telemetry clock and exports them as
// Chrome trace-event JSON ("trace event format", complete events), which
// chrome://tracing and Perfetto load directly. Under the virtual clock the
// recording order is the discrete-event execution order, so traces are
// deterministic replay artifacts, not best-effort logs.
type Tracer struct {
	clk *clockHolder

	mu      sync.Mutex
	epoch   time.Time
	events  []spanEvent
	cap     int
	dropped int64
}

func newTracer(clk *clockHolder, cap int) *Tracer {
	return &Tracer{clk: clk, epoch: clk.now(), cap: cap}
}

// rebase moves the trace epoch (called when the clock is rebound).
func (t *Tracer) rebase(epoch time.Time) {
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
}

func (t *Tracer) record(cat, name string, start time.Time, dur time.Duration, args []Arg) {
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, spanEvent{name: name, cat: cat, start: start, dur: dur, args: args})
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of spans discarded after the cap was hit.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanNames returns the distinct recorded span names, sorted — the
// integration tests' assertion surface.
func (t *Tracer) SpanNames() []string {
	t.mu.Lock()
	seen := make(map[string]bool, 16)
	for _, e := range t.events {
		seen[e.name] = true
	}
	t.mu.Unlock()
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// traceJSON is the trace-event file shape.
type traceJSON struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Dropped         int64        `json:"mummiDroppedSpans,omitempty"`
}

// traceEvent is one trace-event entry. Complete events use ph "X" with ts
// and dur in microseconds; metadata events use ph "M" to name threads.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur,omitempty"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

func marshalArgs(args []Arg) (json.RawMessage, error) {
	if len(args) == 0 {
		return nil, nil
	}
	// Hand-assemble the object so argument order is exactly insertion
	// order (map marshaling would sort keys — fine — but lose duplicates
	// and allocate; this keeps output deterministic and cheap).
	buf := []byte{'{'}
	for i, a := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a.Value)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// Export writes the trace as Chrome trace-event JSON. Threads (tid) are
// assigned per category in sorted-category order, so the same workload
// always produces the same thread layout; a metadata event names each
// thread after its category.
func (t *Tracer) Export(w io.Writer) error {
	t.mu.Lock()
	events := append([]spanEvent(nil), t.events...)
	epoch := t.epoch
	dropped := t.dropped
	t.mu.Unlock()

	cats := make(map[string]int)
	for _, e := range events {
		cats[e.cat] = 0
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	for i, c := range names {
		cats[c] = i + 1
	}

	out := traceJSON{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms", Dropped: dropped}
	for _, c := range names {
		args, err := marshalArgs([]Arg{{Key: "name", Value: c}})
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: cats[c], Args: args,
		})
	}
	for _, e := range events {
		args, err := marshalArgs(e.args)
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: e.name,
			Cat:  e.cat,
			Ph:   "X",
			TS:   float64(e.start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(e.dur) / float64(time.Microsecond),
			PID:  1,
			TID:  cats[e.cat],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Span is an open span; End records it. A nil *Span (tracing off) accepts
// every method as a no-op.
type Span struct {
	tr    *Tracer
	cat   string
	name  string
	start time.Time
	args  []Arg
}

// Arg attaches one argument and returns the span for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Value: value})
	return s
}

// End closes the span at the tracer clock's current time and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.record(s.cat, s.name, s.start, s.tr.clk.now().Sub(s.start), s.args)
}
