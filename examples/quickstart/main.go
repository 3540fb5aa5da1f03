// Quickstart: the MuMMI coupling loop on a laptop, in real computation.
//
// This example runs the full two-scale data path with no scheduler and no
// virtual time: a continuum membrane model evolves, patches are cut around
// its proteins, a fixed-weight ML encoder reduces them to 9-D, farthest-
// point sampling picks the most novel ones, a CG surrogate "simulates" each
// selection and analyzes frames, and the aggregated RDFs feed back into the
// continuum model's coupling parameters — closing the loop the paper builds
// at Summit scale.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mummi/internal/continuum"
	"mummi/internal/datastore"
	"mummi/internal/dynim"
	"mummi/internal/feedback"
	"mummi/internal/mlenc"
	"mummi/internal/patch"
	"mummi/internal/sim"
	"mummi/internal/units"
)

func main() {
	// 1. The macro scale: a small continuum membrane with protein particles.
	cfg := continuum.Config{
		GridN: 96, Domain: 300 * units.Nm,
		InnerLipids: 4, OuterLipids: 3, Proteins: 24, Seed: 42,
	}
	macro, err := continuum.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("continuum: %d×%d grid, %d lipid species, %d proteins\n",
		cfg.GridN, cfg.GridN, cfg.Species(), cfg.Proteins)

	// 2. The ML selection machinery: encoder + capped farthest-point queues.
	encoder, err := mlenc.NewPatchEncoder(cfg.Species(), patch.DefaultGridN, 9, 7)
	if err != nil {
		log.Fatal(err)
	}
	selector := dynim.NewQueueSet(9, 1000, func(dynim.Point) string { return "all" })

	// 3. The feedback loop: CG analyses write RDF frames into a store; the
	// feedback manager aggregates them and updates the continuum couplings.
	store := datastore.NewMemory()
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: store, NewNS: "rdf-new", DoneNS: "rdf-done",
		Species: cfg.Species(), States: continuum.NumProteinStates,
		Apply: macro.UpdateCouplings,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drive a few coupling cycles.
	for cycle := 1; cycle <= 3; cycle++ {
		// Macro advances and emits a snapshot.
		macro.Step(2 * units.Microsecond)
		snap := macro.Snapshot()

		// Task 1: cut a patch around every protein, encode, offer.
		patches, err := patch.CreateAll(snap, patch.DefaultSize, patch.DefaultGridN)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range patches {
			enc, err := encoder.Encode(p)
			if err != nil {
				log.Fatal(err)
			}
			if err := selector.Add(dynim.Point{ID: p.ID, Coords: enc}); err != nil {
				log.Fatal(err)
			}
		}

		// Task 2: promote the most novel patches to the micro scale.
		chosen := selector.Select(4)
		fmt.Printf("cycle %d: %d patches offered, selected %v\n",
			cycle, len(patches), ids(chosen))

		// Micro scale: a CG surrogate per selection produces analyzed
		// frames whose RDFs land in the store.
		for _, pt := range chosen {
			cg := sim.NewCGSim(pt.ID, cfg.Species(), cycle%continuum.NumProteinStates, nil, 99)
			for f := 0; f < 25; f++ {
				frame := cg.NextFrame()
				b, err := frame.MarshalBinary()
				if err != nil {
					log.Fatal(err)
				}
				if err := store.Put("rdf-new", frame.ID(), b); err != nil {
					log.Fatal(err)
				}
			}
		}

		// Task 4: one feedback iteration updates the continuum parameters.
		rep, err := fb.Iterate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %d: feedback processed %d frames in %v; continuum params v%d\n",
			cycle, rep.Frames, rep.Total().Round(1000), macro.ParamVersion())
	}

	fmt.Printf("\ndone: continuum advanced %v, %d frames aggregated, couplings updated %d times\n",
		macro.Time(), fb.TotalFrames(), macro.ParamVersion())
}

func ids(ps []dynim.Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}
