package kvstore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/faults"
	"mummi/internal/feedback"
	"mummi/internal/kvstore"
	"mummi/internal/sim"
	"mummi/internal/vclock"
)

func engineDump(t *testing.T, e *kvstore.Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, k := range e.Keys("*") {
		v, err := e.Get(k)
		if err != nil {
			t.Fatalf("dump %s: %v", k, err)
		}
		out[k] = string(v)
	}
	return out
}

// TestReplicationMirrors drives every mutation class through a replicated
// cluster and asserts the replica keyspaces equal the primaries': the
// synchronous forwarding contract is "client ack implies replica holds the
// write", so after all acks the two sides must match exactly.
func TestReplicationMirrors(t *testing.T) {
	d, err := kvstore.LaunchReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := kvstore.DialShards(d.Shards(), kvstore.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys, vals := make([]string, 120), make([][]byte, 120)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("frame:%03d", i), []byte(fmt.Sprintf("payload-%d", i))
	}
	if err := cl.MSetSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := cl.Rename([]string{fmt.Sprintf("frame:%03d", i)}, []string{fmt.Sprintf("tagged:%03d", i)}); err != nil {
			t.Fatalf("rename %d: %v", i, err)
		}
	}
	if _, err := cl.Del("frame:050", "frame:051", "frame:052"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		p, r := engineDump(t, d.Primary(i).Engine()), engineDump(t, d.Replica(i).Engine())
		if !reflect.DeepEqual(p, r) {
			t.Errorf("shard %d: primary has %d keys, replica %d; keyspaces differ", i, len(p), len(r))
		}
		if d.Primary(i).ReplicaDegraded() {
			t.Errorf("shard %d degraded during healthy run", i)
		}
		if len(r) == 0 {
			t.Errorf("shard %d forwarded nothing", i)
		}
	}
}

// TestFailoverMidMoveBatch kills a shard primary between two MoveBatch
// bursts — the second burst replays keys the first already moved, plus the
// keys that were still pending — and asserts zero lost renames: every key
// ends up in the destination namespace with its value intact. This is the
// at-least-once contract: a replayed rename of an already-moved key
// reports "no such key" on the replica and is skipped, never an error.
func TestFailoverMidMoveBatch(t *testing.T) {
	d, err := kvstore.LaunchReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := kvstore.DialShards(d.Shards(), kvstore.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := kvstore.NewStore(cl)

	const n = 300
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sel%04d", i)
		if err := st.Put("new", keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	// First burst moves half, all acknowledged (and therefore replicated).
	if err := st.MoveBatch("new", keys[:n/2], "done"); err != nil {
		t.Fatal(err)
	}
	// Crash a primary: connections drop mid-stream.
	d.KillPrimary(1)
	// Replay the full batch: the first half replays as no-such-key skips,
	// the second half must survive the failover.
	if err := st.MoveBatch("new", keys, "done"); err != nil {
		t.Fatalf("MoveBatch across failover: %v", err)
	}

	left, err := st.Keys("new")
	if err != nil {
		t.Fatal(err)
	}
	done, err := st.Keys("done")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 || len(done) != n {
		t.Fatalf("after failover: new=%d done=%d, want 0/%d — lost renames", len(left), len(done), n)
	}
	for _, k := range []string{keys[0], keys[n/2], keys[n-1]} {
		v, err := st.Get("done", k)
		if err != nil || string(v) != "v-"+k {
			t.Errorf("Get(done, %s) = %q, %v", k, v, err)
		}
	}
	if cl.Failovers() == 0 {
		t.Error("no failover recorded despite a killed primary")
	}
}

// TestFailoverSetGet covers the simple path: kill a primary, then keep
// writing and reading through the same cluster handle.
func TestFailoverSetGet(t *testing.T) {
	d, err := kvstore.LaunchReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := kvstore.DialShards(d.Shards(), kvstore.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if err := cl.Set(fmt.Sprintf("pre-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	d.KillPrimary(0)
	d.KillPrimary(1)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("pre-%d", i)
		v, err := cl.Get(k)
		if err != nil || string(v) != "x" {
			t.Fatalf("Get(%s) after kill = %q, %v", k, v, err)
		}
	}
	if err := cl.Set("post", []byte("y")); err != nil {
		t.Fatalf("Set after kill: %v", err)
	}
	if v, err := cl.Get("post"); err != nil || string(v) != "y" {
		t.Fatalf("Get(post) = %q, %v", v, err)
	}
}

// TestReplicatedStoreConformance runs the full datastore conformance suite
// against a replicated, sharded cluster via the datastore.Config.Replicas
// wiring.
func TestReplicatedStoreConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep in -short mode")
	}
	open := func(t *testing.T) datastore.Store {
		d, err := kvstore.LaunchReplicated(3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		var addrs, reps []string
		for _, sh := range d.Shards() {
			addrs = append(addrs, sh.Primary)
			reps = append(reps, sh.Replica)
		}
		s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs, Replicas: reps})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Inline the core conformance checks (dstest.Run is exercised by
	// store_test.go; here the point is the replicated wiring).
	s := open(t)
	defer s.Close()
	if err := s.Put("ns", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("ns", "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Move("ns", "k", "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ns", "k"); err == nil {
		t.Fatal("moved key still present")
	}
	if err := s.Delete("done", "k"); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Chaos campaign: feedback over a replicated cluster under NodeCrash faults

func chaosRDF(rng *rand.Rand, species int) [][]float32 {
	rdf := make([][]float32, species)
	for sp := range rdf {
		rdf[sp] = make([]float32, sim.RDFBins)
		for b := range rdf[sp] {
			rdf[sp][b] = float32(rng.Float64() * 2)
		}
	}
	return rdf
}

type chaosResult struct {
	couplings [][]float64
	doneKeys  []string
	frames    int64
	kills     int
	failovers int64
}

// runChaosCampaign produces CG frames into a replicated kv-backed store,
// runs the CG→continuum feedback loop over them, and lets a seeded
// fault-injection engine kill shard primaries on the virtual clock. All
// randomness (frame content, crash schedule, victim choice) derives from
// seed, so the resulting state is a pure function of it.
func runChaosCampaign(t *testing.T, seed int64) chaosResult {
	t.Helper()
	const shards, species, states = 3, 3, 2
	d, err := kvstore.LaunchReplicated(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := kvstore.DialShards(d.Shards(), kvstore.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := kvstore.NewStore(cl)
	defer st.Close()
	var couplings [][]float64 // the last aggregate Iterate applied
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: st, NewNS: "new", DoneNS: "done", Species: species, States: states,
		Apply: func(c [][]float64) error { couplings = c; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	clk := vclock.NewVirtual(time.Unix(0, 0).UTC())
	// NodeCrash at 2880/day = one expected kill per 30 virtual seconds.
	plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{{Class: faults.NodeCrash, Rate: 2880}}}
	eng := faults.NewEngine(clk, nil, plan)
	killed := make([]bool, shards)
	kills := 0
	eng.SetHandler(faults.NodeCrash, func(_ faults.Rule, rng *rand.Rand) {
		victim := rng.Intn(shards) // drawn even when already dead: schedule stays replayable
		if killed[victim] {
			return
		}
		killed[victim] = true
		kills++
		d.KillPrimary(victim)
	})
	eng.Start()

	rng := rand.New(rand.NewSource(seed))
	produced := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 40; i++ {
			f := &sim.CGFrame{SimID: "chaos", Index: produced, State: rng.Intn(states), RDF: chaosRDF(rng, species)}
			b, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("new", fmt.Sprintf("f%06d", produced), b); err != nil {
				t.Fatalf("round %d: Put: %v", round, err)
			}
			produced++
		}
		clk.RunFor(30 * time.Second) // crash events fire here
		if _, err := fb.Iterate(); err != nil {
			t.Fatalf("round %d: Iterate: %v", round, err)
		}
	}

	doneKeys, err := st.Keys("done")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(doneKeys)
	left, err := st.Keys("new")
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: every acknowledged frame is either aggregated-and-tagged
	// or still pending; none may vanish across primary kills.
	if len(doneKeys)+len(left) != produced {
		t.Fatalf("frames lost: done=%d new=%d produced=%d", len(doneKeys), len(left), produced)
	}
	if len(left) != 0 {
		t.Fatalf("%d frames left unprocessed after final iteration", len(left))
	}
	if fb.TotalFrames() != int64(produced) {
		t.Fatalf("aggregated %d frames, produced %d", fb.TotalFrames(), produced)
	}
	return chaosResult{
		couplings: couplings,
		doneKeys:  doneKeys,
		frames:    fb.TotalFrames(),
		kills:     kills,
		failovers: cl.Failovers(),
	}
}

// TestChaosFeedbackSurvivesPrimaryKills is the campaign-level guarantee the
// replication layer exists for: shard primaries die mid-feedback, and the
// loop completes with zero lost selections. Two same-seed runs must also
// produce byte-identical couplings and tagged key sets — the kill schedule,
// the frame stream, and every recovery are functions of the seed alone.
func TestChaosFeedbackSurvivesPrimaryKills(t *testing.T) {
	a := runChaosCampaign(t, 42)
	if a.kills == 0 {
		t.Fatal("chaos plan injected no primary kills; raise the rate")
	}
	if a.failovers == 0 {
		t.Error("primaries died but the cluster recorded no failovers")
	}
	b := runChaosCampaign(t, 42)
	if a.kills != b.kills {
		t.Errorf("same-seed runs injected %d vs %d kills", a.kills, b.kills)
	}
	if a.frames != b.frames {
		t.Errorf("same-seed runs aggregated %d vs %d frames", a.frames, b.frames)
	}
	if !reflect.DeepEqual(a.doneKeys, b.doneKeys) {
		t.Error("same-seed runs tagged different key sets")
	}
	if !reflect.DeepEqual(a.couplings, b.couplings) {
		t.Error("same-seed runs produced different couplings")
	}
}

// TestReplicaHoldsAckedWritesAtKill is the sharpest form of the replication
// invariant: write through the cluster, kill the primary with no grace at
// all, and read every acknowledged key back from what remains.
func TestReplicaHoldsAckedWritesAtKill(t *testing.T) {
	d, err := kvstore.LaunchReplicated(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := kvstore.DialShards(d.Shards(), kvstore.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var want [][2]string
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("acked-%03d", i), fmt.Sprintf("v%d", i)
		if err := cl.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want = append(want, [2]string{k, v})
	}
	d.KillPrimary(0) // zero grace: anything acked must already be on the replica
	for _, kv := range want {
		v, err := cl.Get(kv[0])
		if err != nil || string(v) != kv[1] {
			t.Fatalf("acked write lost: Get(%s) = %q, %v", kv[0], v, err)
		}
	}
}
