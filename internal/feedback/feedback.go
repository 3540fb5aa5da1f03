// Package feedback implements the paper's two in situ feedback loops
// (§4.1(7), §4.4 Task 4) behind an abstract Feedback Manager API.
//
// CG→Continuum: aggregate protein-lipid RDFs streaming from thousands of CG
// analyses and push updated coupling parameters into the running continuum
// model. The load is I/O-shaped — many small frames — so the pipeline is
// built on the abstract data interface and uses the move-out-of-namespace
// tagging strategy: processed frames leave the active namespace (archive or
// key rename), so each iteration's cost scales with ongoing simulations,
// never with the campaign's full history.
//
// AA→CG: fewer frames, but each needs expensive processing (the paper shells
// out to an external module, ~2 s per frame); a worker pool bounds iteration
// latency, which Fig. 8 measures against the 10-minute target.
package feedback

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/sim"
)

// Report describes one feedback iteration, split the way the paper analyzes
// it: identifying new data (scan), loading it (fetch), computing (process),
// and moving processed data out of the namespace (tag).
type Report struct {
	Frames  int
	Scan    time.Duration
	Fetch   time.Duration
	Process time.Duration
	Tag     time.Duration
}

// Total returns the iteration's end-to-end duration.
func (r Report) Total() time.Duration { return r.Scan + r.Fetch + r.Process + r.Tag }

// String renders a compact summary.
func (r Report) String() string {
	return fmt.Sprintf("frames=%d scan=%v fetch=%v process=%v tag=%v total=%v",
		r.Frames, r.Scan, r.Fetch, r.Process, r.Tag, r.Total())
}

// Manager is the abstract Feedback Manager: applications implement Iterate
// with the specifics of "how to read, interpret, and aggregate the data"
// (§4.5) and the workflow manager schedules iterations.
type Manager interface {
	// Iterate performs one feedback pass over all unprocessed data.
	Iterate() (Report, error)
}

// Pass is the one feedback iteration every Manager runs: scan newNS (sorted,
// for a deterministic order), fetch every frame, run process over the values,
// then tag the fetched frames — those process drops too, so none is rescanned
// — by moving them to doneNS. A key consumed between scan and fetch is
// skipped: not processed, not tagged, not an error. Phases are timed.
func Pass(store datastore.Store, newNS, doneNS string, process func(values [][]byte) (frames int, err error)) (Report, error) {
	var rep Report
	t0 := time.Now()
	keys, err := store.Keys(newNS)
	if err != nil {
		return rep, fmt.Errorf("feedback: scan: %w", err)
	}
	sort.Strings(keys)
	rep.Scan = time.Since(t0)

	t1 := time.Now()
	values, keys, err := fetchAll(store, newNS, keys)
	if err != nil {
		return rep, err
	}
	rep.Fetch = time.Since(t1)

	t2 := time.Now()
	rep.Frames, err = process(values)
	rep.Process = time.Since(t2)
	if err != nil {
		return rep, err
	}

	t3 := time.Now()
	if err := tagAll(store, newNS, keys, doneNS); err != nil {
		return rep, err
	}
	rep.Tag = time.Since(t3)
	return rep, nil
}

// ---------------------------------------------------------------------------
// CG → Continuum

// CGConfig assembles the CG→Continuum feedback loop.
type CGConfig struct {
	// Store holds frames; NewNS is the active namespace CG analyses write
	// identifying frames into; DoneNS receives processed frames.
	Store  datastore.Store
	NewNS  string
	DoneNS string
	// Species is the lipid species count; incoming RDFs must match.
	Species int
	// States is the number of protein configuration states.
	States int
	// Apply pushes updated couplings into the continuum model
	// ("the ongoing continuum simulation reads and updates these
	// parameters on the fly"). May be nil for measurement-only runs.
	Apply func(couplings [][]float64) error
}

// CGToContinuum aggregates RDFs into per-state, per-species couplings. The
// aggregate is cumulative across iterations: each frame's first-solvation-
// shell excess contributes to a running mean.
type CGToContinuum struct {
	cfg CGConfig

	mu     sync.Mutex
	sum    [][]float64
	count  [][]int64
	frames int64
}

// NewCGToContinuum validates the configuration.
func NewCGToContinuum(cfg CGConfig) (*CGToContinuum, error) {
	if cfg.Store == nil || cfg.NewNS == "" || cfg.DoneNS == "" || cfg.NewNS == cfg.DoneNS {
		return nil, errors.New("feedback: CG config needs a store and distinct namespaces")
	}
	if cfg.Species < 1 || cfg.States < 1 {
		return nil, fmt.Errorf("feedback: invalid species/states %d/%d", cfg.Species, cfg.States)
	}
	f := &CGToContinuum{cfg: cfg}
	f.sum = make([][]float64, cfg.States)
	f.count = make([][]int64, cfg.States)
	for st := range f.sum {
		f.sum[st] = make([]float64, cfg.Species)
		f.count[st] = make([]int64, cfg.Species)
	}
	return f, nil
}

// TotalFrames returns the cumulative number of frames aggregated.
func (f *CGToContinuum) TotalFrames() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames
}

// couplingsLocked returns the current aggregate: the mean first-shell RDF
// excess per (state, species), defaulting to 0.1 where no data has arrived.
func (f *CGToContinuum) couplingsLocked() [][]float64 {
	out := make([][]float64, f.cfg.States)
	for st := range out {
		out[st] = make([]float64, f.cfg.Species)
		for sp := range out[st] {
			if f.count[st][sp] == 0 {
				out[st][sp] = 0.1
			} else {
				out[st][sp] = f.sum[st][sp] / float64(f.count[st][sp])
			}
		}
	}
	return out
}

// Iterate implements Manager: one Pass that aggregates every frame and
// applies the updated couplings.
func (f *CGToContinuum) Iterate() (Report, error) {
	return Pass(f.cfg.Store, f.cfg.NewNS, f.cfg.DoneNS, f.aggregate)
}

// aggregate is CG's process step: fold each frame's first-shell RDF excess
// into the running means, then push the couplings into the continuum model.
func (f *CGToContinuum) aggregate(values [][]byte) (int, error) {
	frames := 0
	f.mu.Lock()
	for _, v := range values {
		frame, err := sim.UnmarshalCGFrame(v)
		if err != nil {
			// A frame that does not decode (torn, or not the binary
			// format) is dropped, not fatal: the producer will rerun
			// missing frames if needed (§4.4 resilience).
			continue
		}
		if frame.State < 0 || frame.State >= f.cfg.States || len(frame.RDF) != f.cfg.Species {
			continue
		}
		for sp, rdf := range frame.RDF {
			f.sum[frame.State][sp] += firstShellExcess(rdf)
			f.count[frame.State][sp]++
		}
		f.frames++
		frames++
	}
	couplings := f.couplingsLocked()
	f.mu.Unlock()
	if f.cfg.Apply != nil && frames > 0 {
		if err := f.cfg.Apply(couplings); err != nil {
			return frames, fmt.Errorf("feedback: apply: %w", err)
		}
	}
	return frames, nil
}

// fetchAll loads every key's value, batched when the backend supports it.
// It returns the values and the keys actually found (concurrently consumed
// keys are skipped), index-aligned; live reuses keys' backing array.
func fetchAll(store datastore.Store, ns string, keys []string) (values [][]byte, live []string, err error) {
	values, live = make([][]byte, 0, len(keys)), keys[:0]
	if bg, ok := store.(datastore.BatchGetter); ok {
		got, err := bg.GetBatch(ns, keys)
		if err != nil {
			return nil, nil, fmt.Errorf("feedback: batch fetch: %w", err)
		}
		for _, k := range keys {
			if v, ok := got[k]; ok {
				values = append(values, v)
				live = append(live, k)
			}
		}
		return values, live, nil
	}
	for _, k := range keys {
		v, err := store.Get(ns, k)
		if errors.Is(err, datastore.ErrNotFound) {
			continue // concurrently consumed; skip
		}
		if err != nil {
			return nil, nil, fmt.Errorf("feedback: fetch %s: %w", k, err)
		}
		values = append(values, v)
		live = append(live, k)
	}
	return values, live, nil
}

// tagAll moves processed keys out of the active namespace, batched when the
// backend supports it.
func tagAll(store datastore.Store, srcNS string, keys []string, dstNS string) error {
	if bm, ok := store.(datastore.BatchMover); ok {
		if err := bm.MoveBatch(srcNS, keys, dstNS); err != nil {
			return fmt.Errorf("feedback: batch tag: %w", err)
		}
		return nil
	}
	for _, k := range keys {
		if err := store.Move(srcNS, k, dstNS); err != nil && !errors.Is(err, datastore.ErrNotFound) {
			return fmt.Errorf("feedback: tag %s: %w", k, err)
		}
	}
	return nil
}

// firstShellExcess integrates the RDF's excess over bulk density within the
// first solvation shell (the inner half of the radial range) — the coupling
// signal the continuum model consumes.
func firstShellExcess(rdf []float32) float64 {
	n := len(rdf) / 2
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += float64(rdf[i]) - 1
	}
	v := s / float64(n)
	if v < 0 {
		return 0
	}
	return v
}
