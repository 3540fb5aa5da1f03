package main

import (
	"fmt"
	"maps"
	"os"
	"sort"
	"sync"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/feedback"
	"mummi/internal/kvstore"
	"mummi/internal/sim"
	"mummi/internal/telemetry"
)

// feedback-kv is the paper's Fig. 7 / §4.2 data path over the real store: a
// closed loop of one producer and one consumer (two clients on two cores).
// In round r the producer puts kvFrames frames one key at a time into
// namespace rdf-new-(r mod 2) while the consumer runs one feedback
// iteration (scan, batch fetch, process, batch move to rdf-done) over what
// round r-1 put into the other namespace. A barrier ends each round, so
// every iteration sees exactly kvFrames frames and every count is exact.
// Frames are binary: with JSON frames 85% of the run is encoding/json in
// the feedback layer and the store is idle.
const (
	kvShards      = 3
	kvFrames      = 5000
	kvRounds      = 50
	kvRoundsQuick = 5
	kvSpecies     = 8
	kvStates      = 3
	kvDoneNS      = "rdf-done"
)

func kvNewNS(round int) string { return fmt.Sprintf("rdf-new-%d", round%2) }

// kvRig is the deployment and the pre-generated inputs.
type kvRig struct {
	dep    *kvstore.Deployment
	store  datastore.Store
	rounds int
	bodies [][]byte   // one encoded frame per slot, reused every round
	keys   [][]string // keys[round][slot]
	fb     [2]*feedback.CGToContinuum
}

// setupKV launches and dials the cluster and generates the frames from the
// seed. A traced rig counts operations in the registry through
// datastore.Instrument; a timed rig (tel nil) has only the retry armor.
func setupKV(seed int64, quick bool, tel *telemetry.Telemetry) (_ *kvRig, err error) {
	r := &kvRig{rounds: kvRounds}
	if quick {
		r.rounds = kvRoundsQuick
	}
	if r.dep, err = kvstore.LaunchReplicated(kvShards); err != nil {
		return nil, fmt.Errorf("launching kvstore: %w", err)
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	cluster, err := kvstore.DialShards(r.dep.Shards(), kvstore.ClientOptions{})
	if err != nil {
		return nil, fmt.Errorf("dialing kvstore: %w", err)
	}
	var st datastore.Store = kvstore.NewStore(cluster)
	if tel != nil {
		st = datastore.Instrument(st, tel, "kv")
	}
	r.store = datastore.Armor(st, tel, "kv", datastore.ArmorOptions{})

	gen := sim.NewCGSim("kv", kvSpecies, 1, nil, seed)
	ids := make([]string, kvFrames)
	for i := range ids {
		f := gen.NextFrame()
		b, err := f.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("encoding frame: %w", err)
		}
		r.bodies = append(r.bodies, b)
		ids[i] = f.ID()
	}
	r.keys = make([][]string, r.rounds)
	for round := range r.keys {
		r.keys[round] = make([]string, kvFrames)
		for i, id := range ids {
			r.keys[round][i] = fmt.Sprintf("r%03d_%s", round, id)
		}
	}
	for i := range r.fb {
		r.fb[i], err = feedback.NewCGToContinuum(feedback.CGConfig{
			Store: r.store, NewNS: kvNewNS(i), DoneNS: kvDoneNS, Species: kvSpecies, States: kvStates,
		})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *kvRig) close() {
	if r.store != nil {
		if err := r.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing the kvstore client:", err)
		}
	}
	r.dep.Close()
}

// kvOutcome is what the timed loop saw.
type kvOutcome struct {
	root     int     // the span all rounds hang from
	putAt    []int64 // when every put started, nanoseconds since the recorder's origin
	putNS    []int64 // every put's latency
	putErrs  int64
	reports  []feedback.Report
	iterNS   []int64
	iterErrs []error
}

// run drives the rounds. Round 0 only produces and the last round only
// consumes, so rounds+1 barriers pass rounds×kvFrames frames through.
func (r *kvRig) run(sp *spans) kvOutcome {
	n := r.rounds * kvFrames
	out := kvOutcome{putAt: make([]int64, 0, n), putNS: make([]int64, 0, n)}
	root := sp.begin("bench.rounds", -1)
	out.root = root
	for round := 0; round <= r.rounds; round++ {
		var wg sync.WaitGroup
		if round < r.rounds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ns, keys := kvNewNS(round), r.keys[round]
				for i, body := range r.bodies {
					t0 := time.Now()
					err := r.store.Put(ns, keys[i], body)
					out.putAt = append(out.putAt, int64(t0.Sub(sp.t0)))
					out.putNS = append(out.putNS, int64(time.Since(t0)))
					if err != nil {
						out.putErrs++
					}
				}
			}()
		}
		if round > 0 {
			t0 := time.Now()
			start := int64(t0.Sub(sp.t0))
			rep, err := r.fb[(round-1)%2].Iterate()
			d := time.Since(t0)
			wg.Wait()
			// Spans are appended after the barrier: the producer is not
			// touching the recorder, and the consumer's clock reads above
			// are not delayed by it.
			it := len(sp.List)
			sp.add("feedback.iterate", root, start, d)
			at := start
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"feedback.scan", rep.Scan}, {"feedback.fetch", rep.Fetch}, {"feedback.process", rep.Process}, {"feedback.tag", rep.Tag}} {
				sp.add(ph.name, it, at, ph.d)
				at += int64(ph.d)
			}
			out.reports = append(out.reports, rep)
			out.iterNS = append(out.iterNS, int64(d))
			if err != nil {
				out.iterErrs = append(out.iterErrs, err)
			}
		} else {
			wg.Wait()
		}
	}
	sp.end(root)
	return out
}

// childKV sets the rig up, times the rounds, then counts what reached
// rdf-done.
func childKV(o childOpts, tel *telemetry.Telemetry, sp *spans, res *childResult) (measured, error) {
	id := sp.begin("bench.kv_setup", -1)
	rig, err := setupKV(o.seed, o.quick, tel)
	if err != nil {
		return measured{}, err
	}
	defer rig.close()
	sp.grow(8 * (rig.rounds + 1))
	sp.end(id)
	reg, err := startRegion(o.traced)
	if err != nil {
		return measured{}, err
	}
	res.SetupS = reg.t0.Sub(o.spawned).Seconds()
	if o.setupOnly {
		return measured{}, nil
	}
	out := rig.run(sp)
	m, err := reg.stop()
	if err != nil {
		return m, err
	}

	if o.out != "" {
		// One span per put, for the spans file only: 250,000 of them are
		// kept out of the runs whose peak RSS is reported.
		for i, at := range out.putAt {
			sp.add("datastore.put", out.root, at, time.Duration(out.putNS[i]))
		}
	}

	want := int64(rig.rounds * kvFrames)
	res.Work = float64(want)
	res.Attempted = 2 * want // every frame is put once and iterated once
	res.Failed = out.putErrs
	for _, err := range out.iterErrs {
		res.Problems = append(res.Problems, "feedback iterate: "+err.Error())
	}
	for i, rep := range out.reports {
		if rep.Frames != kvFrames {
			res.Problems = append(res.Problems, fmt.Sprintf("iteration %d processed %d frames, want %d", i, rep.Frames, kvFrames))
		}
	}
	done, err := rig.store.Keys(kvDoneNS)
	if err != nil {
		return m, fmt.Errorf("counting %s: %w", kvDoneNS, err)
	}
	if missing := want - int64(len(done)); missing > 0 {
		res.Failed += missing
	}
	left := 0
	for i := 0; i < 2; i++ {
		ks, err := rig.store.Keys(kvNewNS(i))
		if err != nil {
			return m, fmt.Errorf("counting %s: %w", kvNewNS(i), err)
		}
		left += len(ks)
	}
	if left != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d frames left unprocessed", left))
	}

	puts := make([]float64, len(out.putNS))
	busy := 0.0
	for i, ns := range out.putNS {
		puts[i] = float64(ns) / 1e3
		busy += float64(ns) / 1e9
	}
	sort.Float64s(puts)
	iters := make([]float64, len(out.iterNS))
	for i, ns := range out.iterNS {
		iters[i] = float64(ns) / 1e6
	}
	sort.Float64s(iters)
	var scans []float64
	for _, rep := range out.reports {
		scans = append(scans, rep.Scan.Seconds())
	}
	growth := 0.0
	if n := len(scans); n >= 2 {
		k := min(5, n/2)
		if first := mean(scans[:k]); first > 0 {
			growth = mean(scans[n-k:]) / first
		}
	}
	maps.Copy(res.Layer, map[string]float64{
		"datastore.put_busy_s":   busy,
		"datastore.put_p50_us":   percentile(puts, 50),
		"datastore.put_p99_us":   percentile(puts, 99),
		"datastore.put_p999_us":  percentile(puts, 99.9),
		"feedback.scan_s":        sp.total("feedback.scan"),
		"feedback.fetch_s":       sp.total("feedback.fetch"),
		"feedback.process_s":     sp.total("feedback.process"),
		"feedback.tag_s":         sp.total("feedback.tag"),
		"feedback.iter_p50_ms":   percentile(iters, 50),
		"feedback.iter_p80_ms":   percentile(iters, 80),
		"feedback.scan_growth_x": growth,
		"kvstore.keys_final":     float64(len(done)),
	})
	return m, nil
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
