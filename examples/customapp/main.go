// Customapp: generalizability (§4.5) — swap the application components.
//
// The paper's framework is two-part: domain-specific "application"
// components plug into a generic "coordination" platform. This example
// keeps the entire coordination stack (workflow manager, scheduler,
// conductor) and swaps in a completely different application: an urban
// climate study coupling a city-scale airflow model (the coarse scale) to
// street-canyon large-eddy simulations (the fine scale), with a custom
// selector built on the dynim API — a binned sampler over (wind speed,
// thermal stratification, building density) where L2 distance is
// meaningless, exactly the situation the paper's frame selector solves.
//
//	go run ./examples/customapp
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/core"
	"mummi/internal/dynim"
	"mummi/internal/maestro"
	"mummi/internal/sched"
	"mummi/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))

	// Coordination platform: a 12-node GPU machine, Flux-like scheduling
	// with the paper's fixed policies, throttled submission.
	machine, err := cluster.New(cluster.Summit(12))
	if err != nil {
		log.Fatal(err)
	}
	scheduler, err := sched.New(clk, sched.Config{
		Machine: machine, Policy: sched.FirstMatch, Mode: sched.Async,
	})
	if err != nil {
		log.Fatal(err)
	}
	conductor, err := maestro.NewConductor(clk, maestro.FluxBackend{S: scheduler}, 200)
	if err != nil {
		log.Fatal(err)
	}

	// Application component 1: the selector. Three disparate physical
	// quantities, binned independently, 70% importance / 30% random.
	selector, err := dynim.NewBinned([]dynim.BinDim{
		{Lo: 0, Hi: 30, Bins: 10}, // wind speed, m/s
		{Lo: -5, Hi: 5, Bins: 10}, // stratification, K/100m
		{Lo: 0, Hi: 1, Bins: 8},   // building density
	}, 0.7, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Application component 2: the jobs. Mesh generation is the setup
	// (CPU-only); the street-canyon LES is the simulation (one GPU).
	completed := 0
	spec := core.CouplingSpec{
		Name:     "city-to-canyon",
		Selector: selector,
		SetupReq: sched.Request{Name: "meshgen", Cores: 16},
		SetupDuration: func(rng *rand.Rand) time.Duration {
			return 20*time.Minute + time.Duration(rng.Intn(20))*time.Minute
		},
		SimReq: sched.Request{Name: "canyon-les", Cores: 4, GPUs: 1},
		SimDuration: func(rng *rand.Rand, p dynim.Point) time.Duration {
			return time.Duration(2+rng.Intn(5)) * time.Hour
		},
		MaxSims:     48,
		ReadyTarget: 12,
		MaxSetups:   8,
		OnSimEnd: func(p dynim.Point, id sched.JobID, st sched.State) {
			if st == sched.Completed {
				completed++
			}
		},
	}

	wm, err := core.New(core.Config{
		Clock: clk, Conductor: conductor,
		Couplings: []core.CouplingSpec{spec},
		PollEvery: time.Minute, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Application component 3: the coarse model. A toy city-scale airflow
	// "simulation" emits candidate weather states every coarse step.
	rng := rand.New(rand.NewSource(8))
	weather := vclock.NewTicker(clk, 30*time.Minute, func(now time.Time) {
		for i := 0; i < 6; i++ {
			err := wm.AddCandidate("city-to-canyon", dynim.Point{
				ID: fmt.Sprintf("wx-%s-%d", now.Format("0102-150405"), i),
				Coords: []float64{
					rng.Float64() * 30,
					rng.NormFloat64() * 2,
					rng.Float64(),
				},
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	})
	defer weather.Stop()

	if err := wm.Start(); err != nil {
		log.Fatal(err)
	}
	clk.RunFor(48 * time.Hour)
	wm.Stop()

	st := wm.Stats()[0]
	fmt.Println("custom application on the unchanged MuMMI coordination stack:")
	fmt.Printf("  coupling %q: %d candidates queued, %d ready, %d running, %d completed\n",
		st.Name, st.Candidates, st.Ready, st.Running, completed)
	fmt.Printf("  machine: %d/%d GPUs busy, %.0f%% CPU occupancy\n",
		machine.UsedGPUs(), machine.Topology().TotalGPUs(), machine.CPUOccupancy()*100)
	if completed == 0 {
		log.Fatal("no canyon simulations completed — coordination broken")
	}
}
