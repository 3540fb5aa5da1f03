package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/sim"
)

func putCGFrames(t *testing.T, st datastore.Store, ns string, n int, species, state int) {
	t.Helper()
	g := sim.NewCGSim(fmt.Sprintf("sim-st%d", state), species, state, []float64{0.9, 0.1, 0.5}, int64(state+1))
	for i := 0; i < n; i++ {
		f := g.NextFrame()
		b, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(ns, f.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
}

// vanishingStore deletes one key right after listing it — a concurrent
// consumer racing the pass between scan and fetch — and records the keys
// moved.
type vanishingStore struct {
	datastore.Store
	gone  string
	moved []string
}

func (v *vanishingStore) Keys(ns string) ([]string, error) {
	keys, err := v.Store.Keys(ns)
	if err == nil {
		err = v.Delete(ns, v.gone)
	}
	return keys, err
}

func (v *vanishingStore) Move(srcNS, key, dstNS string) error {
	v.moved = append(v.moved, key)
	return v.Store.Move(srcNS, key, dstNS)
}

func (v *vanishingStore) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if b, err := v.Get(ns, k); err == nil {
			out[k] = b
		}
	}
	return out, nil
}

func TestPassSkipsKeyConsumedBetweenScanAndFetch(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			mem := datastore.NewMemory()
			for _, k := range []string{"c", "b", "a"} {
				if err := mem.Put("new", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			v := &vanishingStore{Store: mem, gone: "b"}
			var st datastore.Store = struct{ datastore.Store }{v} // serial Get path
			if batch {
				st = v
			}
			var seen []string
			rep, err := Pass(st, "new", "done", func(values [][]byte) (int, error) {
				for _, b := range values {
					seen = append(seen, string(b))
				}
				return len(values), nil
			})
			if err != nil {
				t.Fatalf("vanished key is an error: %v", err)
			}
			if rep.Frames != 2 || strings.Join(seen, ",") != "a,c" {
				t.Errorf("processed %d frames %v, want 2 [a c] in key order", rep.Frames, seen)
			}
			if left, _ := mem.Keys("new"); strings.Join(v.moved, ",") != "a,c" || len(left) != 0 {
				t.Errorf("tagged %v, left %v; want [a c] tagged and nothing left", v.moved, left)
			}
		})
	}
}

func newCG(t *testing.T, st datastore.Store, apply func([][]float64) error) *CGToContinuum {
	t.Helper()
	f, err := NewCGToContinuum(CGConfig{
		Store: st, NewNS: "rdf-new", DoneNS: "rdf-done",
		Species: 3, States: 3, Apply: apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCGConfigValidation(t *testing.T) {
	st := datastore.NewMemory()
	bad := []CGConfig{
		{NewNS: "a", DoneNS: "b", Species: 1, States: 1},            // no store
		{Store: st, NewNS: "a", DoneNS: "a", Species: 1, States: 1}, // same ns
		{Store: st, NewNS: "a", DoneNS: "b", Species: 0, States: 1},
		{Store: st, NewNS: "a", DoneNS: "b", Species: 1, States: 0},
	}
	for i, cfg := range bad {
		if _, err := NewCGToContinuum(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestCGIterateAggregatesAndTags(t *testing.T) {
	st := datastore.NewMemory()
	putCGFrames(t, st, "rdf-new", 40, 3, 1)
	applied := 0
	var got [][]float64
	f := newCG(t, st, func(c [][]float64) error { applied++; got = c; return nil })

	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 40 {
		t.Errorf("Frames = %d", rep.Frames)
	}
	if applied != 1 {
		t.Errorf("Apply called %d times", applied)
	}
	// Species 0 (fingerprint 0.9) must couple more strongly than species 1
	// (0.1) for the observed state.
	if got[1][0] <= got[1][1] {
		t.Errorf("couplings do not reflect RDFs: %v", got[1])
	}
	// Unobserved states keep the neutral prior.
	if got[0][0] != 0.1 {
		t.Errorf("unobserved state coupling = %v", got[0][0])
	}
	// Tagging: the active namespace is empty, processed frames are in done.
	newKeys, _ := st.Keys("rdf-new")
	doneKeys, _ := st.Keys("rdf-done")
	if len(newKeys) != 0 || len(doneKeys) != 40 {
		t.Errorf("tagging: new=%d done=%d", len(newKeys), len(doneKeys))
	}
}

func TestCGIterateCostScalesWithOngoingNotTotal(t *testing.T) {
	// The tagging strategy's defining property (§4.4 Task 4): a second
	// iteration sees only new frames, no matter how many were ever produced.
	st := datastore.NewMemory()
	f := newCG(t, st, nil)
	putCGFrames(t, st, "rdf-new", 100, 3, 0)
	if rep, _ := f.Iterate(); rep.Frames != 100 {
		t.Fatalf("first pass = %d", rep.Frames)
	}
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 {
		t.Errorf("second pass reprocessed %d frames", rep.Frames)
	}
	if f.TotalFrames() != 100 {
		t.Errorf("TotalFrames = %d", f.TotalFrames())
	}
}

func TestCGIterateSkipsTornFrames(t *testing.T) {
	st := datastore.NewMemory()
	putCGFrames(t, st, "rdf-new", 5, 3, 0)
	st.Put("rdf-new", "torn", []byte("CGF1\x05"))
	// A frame has one encoding, the binary one: the JSON of a well-shaped
	// frame is dropped like a torn one.
	j, err := json.Marshal(sim.NewCGSim("json", 3, 0, nil, 1).NextFrame())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("rdf-new", "json", j)
	f := newCG(t, st, nil)
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 5 {
		t.Errorf("Frames = %d, want 5 (torn and JSON skipped)", rep.Frames)
	}
	// Both still tagged away so they are not rescanned forever.
	newKeys, _ := st.Keys("rdf-new")
	if len(newKeys) != 0 {
		t.Errorf("torn frame left in active namespace: %v", newKeys)
	}
}

func TestCGIterateWrongShapeFramesSkipped(t *testing.T) {
	st := datastore.NewMemory()
	// Frame with 7 species into a 3-species aggregator.
	putCGFrames(t, st, "rdf-new", 3, 7, 0)
	f := newCG(t, st, nil)
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 {
		t.Errorf("mismatched frames aggregated: %d", rep.Frames)
	}
}

func TestCGApplyErrorPropagates(t *testing.T) {
	st := datastore.NewMemory()
	putCGFrames(t, st, "rdf-new", 2, 3, 0)
	f := newCG(t, st, func([][]float64) error { return errors.New("continuum offline") })
	if _, err := f.Iterate(); err == nil {
		t.Error("apply error swallowed")
	}
}

func TestCGNoApplyOnEmptyIteration(t *testing.T) {
	st := datastore.NewMemory()
	applied := 0
	f := newCG(t, st, func([][]float64) error { applied++; return nil })
	if _, err := f.Iterate(); err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Error("Apply called with no data")
	}
}

func TestFirstShellExcess(t *testing.T) {
	flat := make([]float32, 20)
	for i := range flat {
		flat[i] = 1
	}
	if v := firstShellExcess(flat); v != 0 {
		t.Errorf("flat RDF excess = %v", v)
	}
	peaked := append([]float32(nil), flat...)
	peaked[4] = 3 // +2 over bulk in one of 10 inner bins
	if v := firstShellExcess(peaked); v < 0.19 || v > 0.21 {
		t.Errorf("peaked excess = %v, want 0.2", v)
	}
	if firstShellExcess(nil) != 0 {
		t.Error("empty RDF excess nonzero")
	}
}

// ---------------------------------------------------------------------------
// AA → CG

func putAAFrames(t *testing.T, st datastore.Store, ns string, n int, seed int64) {
	t.Helper()
	g := sim.NewAASim(fmt.Sprintf("aa-%d", seed), seed)
	for i := 0; i < n; i++ {
		f := g.NextFrame()
		b, _ := f.Marshal()
		if err := st.Put(ns, f.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAAConfigValidation(t *testing.T) {
	st := datastore.NewMemory()
	if _, err := NewAAToCG(AAConfig{NewNS: "a", DoneNS: "b"}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewAAToCG(AAConfig{Store: st, NewNS: "a", DoneNS: "a"}); err == nil {
		t.Error("same namespaces accepted")
	}
	// Workers < 1 is repaired, not rejected.
	f, err := NewAAToCG(AAConfig{Store: st, NewNS: "a", DoneNS: "b", Workers: 0})
	if err != nil || f.cfg.Workers != 1 {
		t.Errorf("workers not repaired: %v", err)
	}
}

func TestAAIterateConsensusAndVersioning(t *testing.T) {
	st := datastore.NewMemory()
	putAAFrames(t, st, "aa-new", 20, 1)
	var gotConsensus string
	var gotVersion int
	f, err := NewAAToCG(AAConfig{
		Store: st, NewNS: "aa-new", DoneNS: "aa-done", Workers: 4,
		Apply: func(c string, v int) error { gotConsensus, gotVersion = c, v; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 20 {
		t.Errorf("Frames = %d", rep.Frames)
	}
	if len(gotConsensus) != sim.SecStructResidues || gotVersion != 1 {
		t.Errorf("consensus len=%d version=%d", len(gotConsensus), gotVersion)
	}
	// Progressive refinement: the next batch bumps the version.
	putAAFrames(t, st, "aa-new", 5, 2)
	if _, err := f.Iterate(); err != nil {
		t.Fatal(err)
	}
	if f.Version() != 2 || f.TotalFrames() != 25 {
		t.Errorf("version=%d frames=%d", f.Version(), f.TotalFrames())
	}
	if keys, _ := st.Keys("aa-new"); len(keys) != 0 {
		t.Error("frames left untagged")
	}
}

func TestAAIterateExternalProcessAndFailures(t *testing.T) {
	st := datastore.NewMemory()
	putAAFrames(t, st, "aa-new", 10, 3)
	var calls atomic.Int32
	f, _ := NewAAToCG(AAConfig{
		Store: st, NewNS: "aa-new", DoneNS: "aa-done", Workers: 3,
		Process: func(fr *sim.AAFrame) (string, error) {
			n := calls.Add(1)
			if n%5 == 0 {
				return "", errors.New("external module crashed")
			}
			return strings.Repeat("H", sim.SecStructResidues), nil
		},
	})
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 {
		t.Errorf("external module called %d times", calls.Load())
	}
	if rep.Frames != 8 { // two of ten failed
		t.Errorf("Frames = %d, want 8", rep.Frames)
	}
}

func TestAAEligibilityFilter(t *testing.T) {
	st := datastore.NewMemory()
	putAAFrames(t, st, "aa-new", 10, 4)
	f, _ := NewAAToCG(AAConfig{
		Store: st, NewNS: "aa-new", DoneNS: "aa-done", Workers: 2,
		Eligible: func(fr *sim.AAFrame) bool { return fr.Index%2 == 0 },
	})
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 5 {
		t.Errorf("Frames = %d, want 5 eligible", rep.Frames)
	}
	// Ineligible frames are still tagged out of the namespace.
	if keys, _ := st.Keys("aa-new"); len(keys) != 0 {
		t.Error("ineligible frames left in active namespace")
	}
}

func TestAAPoolActuallyParallel(t *testing.T) {
	st := datastore.NewMemory()
	putAAFrames(t, st, "aa-new", 8, 5)
	const perFrame = 30 * time.Millisecond
	f, _ := NewAAToCG(AAConfig{
		Store: st, NewNS: "aa-new", DoneNS: "aa-done", Workers: 8,
		Process: func(fr *sim.AAFrame) (string, error) {
			time.Sleep(perFrame)
			return fr.SecStruct, nil
		},
	})
	rep, err := f.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	// 8 frames × 30 ms serial = 240 ms; 8 workers should finish in ~1× the
	// per-frame cost (generous 4× bound for CI noise).
	if rep.Process > 4*perFrame {
		t.Errorf("pooled processing took %v, want ~%v", rep.Process, perFrame)
	}
}

func TestSimulatePoolTime(t *testing.T) {
	costs := []time.Duration{2 * time.Second, 2 * time.Second, 2 * time.Second, 2 * time.Second}
	if got := SimulatePoolTime(costs, 1); got != 8*time.Second {
		t.Errorf("1 worker = %v", got)
	}
	if got := SimulatePoolTime(costs, 2); got != 4*time.Second {
		t.Errorf("2 workers = %v", got)
	}
	if got := SimulatePoolTime(costs, 8); got != 2*time.Second {
		t.Errorf("8 workers = %v", got)
	}
	if got := SimulatePoolTime(nil, 4); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := SimulatePoolTime(costs, 0); got != 8*time.Second {
		t.Errorf("0 workers not repaired: %v", got)
	}
	// The Fig. 8 arithmetic: 1600 frames × 2 s across a pool must land at
	// the 10-minute mark with ~5.3 workers; with 6 workers it fits.
	many := make([]time.Duration, 1600)
	for i := range many {
		many[i] = 2 * time.Second
	}
	if got := SimulatePoolTime(many, 6); got > 10*time.Minute {
		t.Errorf("1600 frames on 6 workers = %v, want <= 10 min", got)
	}
}

func TestManagersImplementInterface(t *testing.T) {
	st := datastore.NewMemory()
	cg := newCG(t, st, nil)
	aa, _ := NewAAToCG(AAConfig{Store: st, NewNS: "a", DoneNS: "b"})
	for i, m := range []Manager{cg, aa} {
		if _, err := m.Iterate(); err != nil {
			t.Errorf("manager %d empty iterate: %v", i, err)
		}
	}
}

func TestReportTotalAndString(t *testing.T) {
	r := Report{Frames: 3, Scan: time.Second, Fetch: 2 * time.Second,
		Process: 3 * time.Second, Tag: 4 * time.Second}
	if r.Total() != 10*time.Second {
		t.Errorf("Total = %v", r.Total())
	}
	if !strings.Contains(r.String(), "frames=3") {
		t.Errorf("String = %q", r.String())
	}
}
