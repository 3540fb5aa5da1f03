package feedback

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/sim"
)

// AAConfig assembles the AA→CG feedback loop.
type AAConfig struct {
	Store  datastore.Store
	NewNS  string
	DoneNS string
	// Workers is the processing pool size ("suitable process pools ...
	// allowed bounding the processing time to within the target time
	// limit").
	Workers int
	// Process is the per-frame external-module call (the paper shells out
	// twice per frame, ~2 s in isolation). It returns the frame's refined
	// secondary structure. Nil defaults to using the frame's own analysis.
	Process func(*sim.AAFrame) (string, error)
	// Eligible filters frames before processing (the paper: "AA frames are
	// further filtered for eligibility for feedback"). Nil accepts all.
	Eligible func(*sim.AAFrame) bool
	// Apply receives the consensus secondary structure and a monotonically
	// increasing parameter version — the progressive refinement of the CG
	// protein force field.
	Apply func(consensus string, version int) error
}

// AAToCG computes the most common secondary-structure pattern across AA
// frames and promotes it to the CG model.
type AAToCG struct {
	cfg AAConfig

	mu      sync.Mutex
	version int
	frames  int64
}

// NewAAToCG validates the configuration.
func NewAAToCG(cfg AAConfig) (*AAToCG, error) {
	if cfg.Store == nil || cfg.NewNS == "" || cfg.DoneNS == "" || cfg.NewNS == cfg.DoneNS {
		return nil, errors.New("feedback: AA config needs a store and distinct namespaces")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Process == nil {
		cfg.Process = func(fr *sim.AAFrame) (string, error) { return fr.SecStruct, nil }
	}
	return &AAToCG{cfg: cfg}, nil
}

// Version returns the current CG parameter version.
func (f *AAToCG) Version() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// TotalFrames returns the cumulative frames processed.
func (f *AAToCG) TotalFrames() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames
}

// Iterate implements Manager: one Pass that processes the new frames through
// the worker pool, derives the consensus and applies it.
func (f *AAToCG) Iterate() (Report, error) {
	return Pass(f.cfg.Store, f.cfg.NewNS, f.cfg.DoneNS, f.refine)
}

// refine is AA's process step: decode and filter the frames, run the
// external module over the eligible ones in the worker pool, and promote
// the consensus secondary structure to the CG model.
func (f *AAToCG) refine(values [][]byte) (int, error) {
	var frames []*sim.AAFrame
	for _, v := range values {
		fr, err := sim.UnmarshalAAFrame(v)
		if err != nil {
			continue // torn frame: tag it away without processing
		}
		if f.cfg.Eligible != nil && !f.cfg.Eligible(fr) {
			continue
		}
		frames = append(frames, fr)
	}

	results := make([]string, len(frames))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < f.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A failed external call leaves "" and drops that frame
				// below; the iteration proceeds (the paper tolerates
				// per-frame failures, rerunning if needed).
				if ss, err := f.cfg.Process(frames[i]); err == nil {
					results[i] = ss
				}
			}
		}()
	}
	for i := range frames {
		work <- i
	}
	close(work)
	wg.Wait()
	processed := make([]*sim.AAFrame, 0, len(frames))
	for i, fr := range frames {
		if results[i] != "" {
			fr.SecStruct = results[i]
			processed = append(processed, fr)
		}
	}
	if len(processed) == 0 {
		return 0, nil
	}
	consensus, err := sim.ConsensusSecStruct(processed)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.version++
	f.frames += int64(len(processed))
	v := f.version
	f.mu.Unlock()
	if f.cfg.Apply != nil {
		if err := f.cfg.Apply(consensus, v); err != nil {
			return len(processed), fmt.Errorf("feedback: apply: %w", err)
		}
	}
	return len(processed), nil
}

// SimulatePoolTime computes how long a worker pool takes to drain per-frame
// costs under FIFO list scheduling — the deterministic model the Fig. 8
// generator uses to replay AA-feedback iterations in virtual time (the pool
// above behaves identically for uniform costs).
func SimulatePoolTime(costs []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	busy := make([]time.Duration, workers)
	for _, c := range costs {
		// Assign to the earliest-free worker (FIFO pull from a channel).
		best := 0
		for w := 1; w < workers; w++ {
			if busy[w] < busy[best] {
				best = w
			}
		}
		busy[best] += c
	}
	var max time.Duration
	for _, b := range busy {
		if b > max {
			max = b
		}
	}
	return max
}
