// Command tracecheck validates the observability artifacts a campaign run
// writes: a Chrome trace-event JSON (-trace flag output) and a metrics
// snapshot JSON (-metrics flag output). CI runs it after the example
// campaign to fail the build if either file is empty, unparsable, or
// missing the spans/counters the instrumentation contract promises
// (all four workflow-manager tasks and at least one scheduler match), or if
// any histogram was observed but sums to zero — a series that times nothing.
//
// Usage:
//
//	go run ./scripts/tracecheck trace.json metrics.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) != 3 {
		fail(fmt.Errorf("usage: tracecheck <trace.json> <metrics.json>"))
	}
	if err := checkTrace(os.Args[1]); err != nil {
		fail(fmt.Errorf("%s: %w", os.Args[1], err))
	}
	if err := checkMetrics(os.Args[2]); err != nil {
		fail(fmt.Errorf("%s: %w", os.Args[2], err))
	}
	fmt.Println("tracecheck: ok")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}

// requiredSpans are the span names the instrumented campaign must emit:
// the four workflow-manager tasks and the scheduler's graph match.
var requiredSpans = []string{
	"task1.ingest", "task2.select", "task3.poll", "task4.feedback", "match",
}

// checkTrace parses a Chrome trace-event JSON file and verifies it is
// non-trivial and contains every required span as a complete ("X") event.
func checkTrace(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("empty file")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("not trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			seen[ev.Name] = true
			if ev.Dur < 0 || ev.TS < 0 {
				return fmt.Errorf("span %q has negative ts/dur", ev.Name)
			}
		}
	}
	for _, name := range requiredSpans {
		if !seen[name] {
			return fmt.Errorf("missing required span %q (have %d distinct X events)", name, len(seen))
		}
	}
	return nil
}

// checkMetrics parses a metrics snapshot and verifies the sections exist,
// the workflow-manager counters are present and nonzero, and no histogram
// is structurally zero (observations, zero sum).
func checkMetrics(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("empty file")
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges     []json.RawMessage `json:"gauges"`
		Histograms []struct {
			Name  string  `json:"name"`
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("not a metrics snapshot: %w", err)
	}
	if len(doc.Counters) == 0 || len(doc.Histograms) == 0 {
		return fmt.Errorf("snapshot has %d counters, %d histograms; want both nonzero",
			len(doc.Counters), len(doc.Histograms))
	}
	for _, h := range doc.Histograms {
		if h.Count > 0 && h.Sum == 0 {
			return fmt.Errorf("histogram %q has %d observations and a zero sum", h.Name, h.Count)
		}
	}
	// One nonzero counter per workflow-manager task (labels vary by
	// coupling, so match on prefix).
	for _, prefix := range []string{
		"wm.candidates_total", "wm.selections_total", "wm.polls_total", "wm.feedback_runs_total",
	} {
		ok := false
		for _, c := range doc.Counters {
			if c.Value > 0 && len(c.Name) >= len(prefix) && c.Name[:len(prefix)] == prefix {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("no nonzero counter with prefix %q", prefix)
		}
	}
	return nil
}
