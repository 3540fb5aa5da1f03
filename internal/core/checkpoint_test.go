package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mummi/internal/dynim"
)

// TestEveryCheckpointFieldIsRestored holds the record to "only what a
// restore reads": for each field of CouplingCheckpoint, a record with only
// that field set (beside the name that routes it) must restore to coupling
// stats different from the bare record's. A field something writes and
// nothing reads fails here.
func TestEveryCheckpointFieldIsRestored(t *testing.T) {
	const name = "continuum-to-cg"
	restore := func(c CouplingCheckpoint) (CouplingStats, error) {
		r := newRig(t, 1)
		w, err := New(Config{Clock: r.clk, Conductor: r.cond,
			Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RestoreCoupling(c); err != nil {
			return CouplingStats{}, err
		}
		return w.Stats()[0], nil
	}
	bare, err := restore(CouplingCheckpoint{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(CouplingCheckpoint{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		c := CouplingCheckpoint{Name: name}
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Interface().(type) {
		case string:
			v.SetString("ghost")
		case int:
			v.SetInt(3)
		case []dynim.Point:
			v.Set(reflect.ValueOf([]dynim.Point{{ID: "p", Coords: []float64{1}}}))
		default:
			t.Fatalf("field %s has type %s: teach this test to set it", field.Name, field.Type)
		}
		got, err := restore(c)
		if field.Name == "Name" {
			// The name routes the record; a different one must not land here.
			if err == nil {
				t.Errorf("record named %q restored into %q", c.Name, name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", field.Name, err)
		}
		if got == bare {
			t.Errorf("field %s is write-only: restoring it changes nothing (%+v)", field.Name, got)
		}
	}
}

// TestCheckpointSizeIgnoresQueuedCandidates: the checkpoint holds selected
// configurations only, so its size does not grow with the selector's queue.
func TestCheckpointSizeIgnoresQueuedCandidates(t *testing.T) {
	r := newRig(t, 2)
	sel, err := dynim.NewBinned([]dynim.BinDim{{Lo: 0, Hi: 1, Bins: 8}}, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(sel, 4, 4)}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	queue := func(upTo int) {
		for ; next < upTo; next++ {
			p := dynim.Point{ID: fmt.Sprintf("f%05d", next), Coords: []float64{float64(next%97) / 97}}
			if err := w.AddCandidate("continuum-to-cg", p); err != nil {
				t.Fatal(err)
			}
		}
	}
	size := func() int {
		ck, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return len(ck)
	}
	queue(20)
	w.Start()
	r.clk.RunFor(4 * time.Hour) // setups done, sims running
	w.Stop()
	if st := w.Stats()[0]; st.Running == 0 || st.Ready+st.InSetup == 0 {
		t.Fatalf("nothing in flight to checkpoint: %+v", st)
	}
	queue(next + 10)
	small := size()
	queue(next + 9990)
	if got := sel.Len(); got < 10000 {
		t.Fatalf("selector queues %d candidates, want >= 10000", got)
	}
	if large := size(); large != small {
		t.Errorf("checkpoint grew with the candidate queue: %d bytes with 10 queued, %d with 10,000", small, large)
	}
}

func mustEncode(t testing.TB, cks ...CouplingCheckpoint) []byte {
	t.Helper()
	b, err := EncodeCheckpoint(cks...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameRecords compares records bit for bit, so -0 differs from +0; a nil
// and an empty list are the same list.
func sameRecords(a, b []CouplingCheckpoint) bool {
	samePoints := func(a, b []dynim.Point) bool {
		return slices.EqualFunc(a, b, func(p, q dynim.Point) bool {
			return p.ID == q.ID && slices.EqualFunc(p.Coords, q.Coords, func(u, v float64) bool {
				return math.Float64bits(u) == math.Float64bits(v)
			})
		})
	}
	return slices.EqualFunc(a, b, func(x, y CouplingCheckpoint) bool {
		return x.Name == y.Name && x.Launched == y.Launched && x.Completed == y.Completed &&
			samePoints(x.Ready, y.Ready) && samePoints(x.RunningSims, y.RunningSims) &&
			samePoints(x.InSetup, y.InSetup)
	})
}

// twoCouplingCheckpoint runs a manager with two couplings of different
// dims until both hold ready, running and in-setup configurations, and
// returns its checkpoint.
func twoCouplingCheckpoint(t testing.TB) []byte {
	t.Helper()
	r := newRig(t, 4)
	cg := cgCoupling(dynim.NewFarthestPoint(2, 0), 2, 4)
	aa := cgCoupling(dynim.NewFarthestPoint(3, 0), 2, 4)
	aa.Name = "cg-to-aa"
	for _, c := range []*CouplingSpec{&cg, &aa} {
		c.SetupDuration = func(rng *rand.Rand) time.Duration { return time.Duration(20+rng.Intn(100)) * time.Minute }
	}
	w, err := New(Config{Clock: r.clk, Conductor: r.cond, Couplings: []CouplingSpec{cg, aa}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := float64(i)
		if err := w.AddCandidate(cg.Name, dynim.Point{ID: fmt.Sprintf("p%03d", i), Coords: []float64{x, -x / 3}}); err != nil {
			t.Fatal(err)
		}
		if err := w.AddCandidate(aa.Name, dynim.Point{ID: fmt.Sprintf("f%03d", i), Coords: []float64{x, 1, 1 / (x + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Start()
	r.clk.RunFor(150 * time.Minute)
	w.Stop()
	ck, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cks, err := DecodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cks {
		if len(c.Ready) == 0 || len(c.RunningSims) == 0 || len(c.InSetup) == 0 {
			t.Fatalf("coupling %s: %d ready, %d running, %d in setup: want all three", c.Name,
				len(c.Ready), len(c.RunningSims), len(c.InSetup))
		}
	}
	return ck
}

// TestCheckpointRoundTripProperty: a decoded record is the encoded one bit
// for bit, over counters at the int64 extremes, empty and non-ASCII IDs,
// ±0 and subnormal coordinates, nil and empty lists, and one to three
// couplings of different dims.
func TestCheckpointRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.NaN()}
	ids := []string{"", "p0000001_001", "ψ-é-数", "\xff\x00", strings.Repeat("x", 300)}
	counters := []int{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40}
	list := func(dim int) []dynim.Point {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []dynim.Point{}
		}
		ps := make([]dynim.Point, 1+rng.Intn(40))
		for i := range ps {
			ps[i] = dynim.Point{ID: ids[rng.Intn(len(ids))], Coords: make([]float64, dim)}
			for j := range ps[i].Coords {
				ps[i].Coords[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				if rng.Intn(2) == 0 {
					ps[i].Coords[j] = floats[rng.Intn(len(floats))]
				}
			}
		}
		return ps
	}
	for iter := 0; iter < 300; iter++ {
		cks := make([]CouplingCheckpoint, 1+rng.Intn(3))
		for i := range cks {
			dim := 1 + 4*i
			cks[i] = CouplingCheckpoint{Name: ids[rng.Intn(len(ids))] + fmt.Sprint(i),
				Ready: list(dim), RunningSims: list(dim), InSetup: list(dim),
				Launched: counters[rng.Intn(len(counters))], Completed: counters[rng.Intn(len(counters))]}
		}
		got, err := DecodeCheckpoint(mustEncode(t, cks...))
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if !sameRecords(got, cks) {
			t.Fatalf("iteration %d: round trip\n got %+v\nwant %+v", iter, got, cks)
		}
	}
	ragged := CouplingCheckpoint{Name: "c", Ready: []dynim.Point{{ID: "a", Coords: []float64{1}}, {ID: "b"}}}
	if _, err := EncodeCheckpoint(ragged); err == nil {
		t.Error("a list of points with different dims was encoded")
	}
}

// TestTruncatedCheckpointIsAnError: every proper prefix of a real
// two-coupling checkpoint, and the checkpoint with one byte appended, fails
// with the corrupt-checkpoint error and no record.
func TestTruncatedCheckpointIsAnError(t *testing.T) {
	ck := twoCouplingCheckpoint(t)
	for n := 0; n <= len(ck); n++ {
		doc := ck[:n:n]
		if n == len(ck) {
			doc = append(doc, 0)
		}
		if cks, err := DecodeCheckpoint(doc); err == nil || cks != nil ||
			!strings.HasPrefix(err.Error(), "core: corrupt checkpoint: ") {
			t.Fatalf("%d of %d bytes: %d records, err %v", len(doc), len(ck), len(cks), err)
		}
	}
}

// FuzzDecodeCheckpoint: any input either fails with the corrupt-checkpoint
// error or decodes to records that survive an encode and decode unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(twoCouplingCheckpoint(f))
	f.Add(mustEncode(f, CouplingCheckpoint{Name: "ghost", Launched: -1, InSetup: []dynim.Point{{ID: "s"}}}))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cks, err := DecodeCheckpoint(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: corrupt checkpoint: ") {
				t.Fatalf("error without the corrupt-checkpoint prefix: %v", err)
			}
			return
		}
		if again, err := DecodeCheckpoint(mustEncode(t, cks...)); err != nil || !sameRecords(again, cks) {
			t.Fatalf("decoded records do not survive a round trip: %v", err)
		}
	})
}

// TestDecodedCoordsDoNotAlias: decoded points share one backing array per
// list, so appending to one point's coordinates must leave its neighbour's
// alone.
func TestDecodedCoordsDoNotAlias(t *testing.T) {
	cks, err := DecodeCheckpoint(mustEncode(t, CouplingCheckpoint{Name: "c",
		Ready: []dynim.Point{{ID: "a", Coords: []float64{1, 2}}, {ID: "b", Coords: []float64{3, 4}}}}))
	if err != nil {
		t.Fatal(err)
	}
	ready := cks[0].Ready
	grown := append(ready[0].Coords, 99)
	if grown[2] != 99 || !slices.Equal(ready[1].Coords, []float64{3, 4}) {
		t.Errorf("appending to a's coordinates changed b's: %v", ready[1].Coords)
	}
}

// TestRestoreRejectsRepeatedCoupling: a document that names a coupling twice
// is corrupt. Restored record by record it would keep only the second
// record's ready queue and both records' in-setup selections.
func TestRestoreRejectsRepeatedCoupling(t *testing.T) {
	r := newRig(t, 1)
	w, err := New(Config{Clock: r.clk, Conductor: r.cond,
		Couplings: []CouplingSpec{cgCoupling(dynim.NewFarthestPoint(1, 0), 1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	c := CouplingCheckpoint{Name: "continuum-to-cg", Ready: []dynim.Point{{ID: "r", Coords: []float64{1}}},
		InSetup: []dynim.Point{{ID: "s", Coords: []float64{2}}}}
	err = w.RestoreState(mustEncode(t, c, c))
	if err == nil || !strings.HasPrefix(err.Error(), `core: corrupt checkpoint: duplicate coupling "continuum-to-cg"`) {
		t.Errorf("restore of a repeated coupling = %v, stats %+v", err, w.Stats()[0])
	}
}
