package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The gate is byte equality with the committed ledger, so a replay whose
// ledger has a different shape — not just different values — must fail it.
// Each case doctors the committed side of a clean scenario so that the
// (unchanged) fresh replay is the one missing or carrying something.
func TestGateRejectsShapeDrift(t *testing.T) {
	const scenario = "laptop-smoke"
	traceFile := scenario + ".trace.json"
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", traceFile))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		doctor func(committed *ledger)
		listed string // the line explain must print for the mismatch
	}{
		{"fresh missing a metric",
			func(l *ledger) { l.Experiments["scenario"]["retired_metric"] = 1 },
			"scenario.retired_metric"},
		{"fresh missing an experiment",
			func(l *ledger) { l.Experiments["chaos"] = map[string]float64{"node_crashes": 2} },
			"chaos.node_crashes"},
		{"fresh carrying an extra experiment",
			func(l *ledger) { delete(l.Experiments, "scenario") },
			"scenario.runs_done"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, traceFile), src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run(io.Discard, dir, "", "", true, false); err != nil {
				t.Fatal(err)
			}
			if err := run(io.Discard, dir, "", "", false, false); err != nil {
				t.Fatalf("undoctored ledger fails its own gate: %v", err)
			}

			committed := filepath.Join(dir, ledgerName(scenario))
			b, err := os.ReadFile(committed)
			if err != nil {
				t.Fatal(err)
			}
			var l ledger
			if err := json.Unmarshal(b, &l); err != nil {
				t.Fatal(err)
			}
			tc.doctor(&l)
			if b, err = l.marshal(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(committed, b, 0o644); err != nil {
				t.Fatal(err)
			}

			var out strings.Builder
			if err := run(&out, dir, "", "", false, false); err == nil {
				t.Errorf("gate passed:\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.listed) {
				t.Errorf("mismatch listing does not name %s:\n%s", tc.listed, out.String())
			}
		})
	}
}
