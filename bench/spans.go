package main

import "time"

// A span is one call from the benchmark into a layer: its name, when it
// started and ended (nanoseconds since the recorder was made), and the span
// that caused it (-1 for none). All spans of a child share its run id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spans keeps a child's spans in memory; they are written out, if at all,
// when the child ends.
type spans struct {
	RunID string `json:"run_id"`
	List  []span `json:"spans"`
	t0    time.Time
}

func newSpans(runID string) *spans {
	return &spans{RunID: runID, t0: time.Now()}
}

// grow makes room for n more spans ahead of a timed region, so that
// recording them does not allocate inside it.
func (s *spans) grow(n int) {
	s.List = append(make([]span, 0, len(s.List)+n), s.List...)
}

func (s *spans) begin(name string, parent int) int {
	s.List = append(s.List, span{Name: name, Start: int64(time.Since(s.t0)), Parent: parent})
	return len(s.List) - 1
}

func (s *spans) end(id int) {
	s.List[id].End = int64(time.Since(s.t0))
}

// add records a span whose duration someone else measured, starting at
// start nanoseconds.
func (s *spans) add(name string, parent int, start int64, d time.Duration) {
	s.List = append(s.List, span{Name: name, Start: start, End: start + int64(d), Parent: parent})
}

// total is the summed duration of every span of one name, in seconds.
func (s *spans) total(name string) float64 {
	sum := 0.0
	for _, sp := range s.List {
		if sp.Name == name {
			sum += float64(sp.End-sp.Start) / 1e9
		}
	}
	return sum
}
