package continuum

import (
	"bytes"
	"math"
	"testing"

	"mummi/internal/units"
)

// density is species sp's density at grid cell (x, y).
func density(s *Sim, sp, x, y int) float64 { return float64(s.fields[sp][y*s.cfg.GridN+x]) }

// proteins copies the particle states.
func proteins(s *Sim) []Protein { return append([]Protein(nil), s.proteins...) }

// couplings deep-copies the coupling matrix.
func couplings(s *Sim) [][]float64 {
	out := make([][]float64, len(s.couplings))
	for i, row := range s.couplings {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func small() Config {
	return Config{GridN: 32, Domain: 100 * units.Nm, InnerLipids: 3, OuterLipids: 2,
		Proteins: 5, Seed: 7}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{GridN: 4, Domain: 1, InnerLipids: 1},
		{GridN: 64, Domain: 0, InnerLipids: 1},
		{GridN: 64, Domain: 1, InnerLipids: 0},
		{GridN: 64, Domain: 1, InnerLipids: 1, Proteins: -1},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if DefaultConfig().Species() != 14 {
		t.Errorf("paper has 8+6=14 species, default has %d", DefaultConfig().Species())
	}
}

func TestStepAdvancesTimeAndMoves(t *testing.T) {
	s, err := New(small())
	if err != nil {
		t.Fatal(err)
	}
	before := proteins(s)
	s.Step(1 * units.Microsecond)
	if s.Time() != 1*units.Microsecond {
		t.Errorf("Time = %v", s.Time())
	}
	after := proteins(s)
	moved := 0
	for i := range before {
		if before[i].X != after[i].X || before[i].Y != after[i].Y {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no protein moved in 1 µs")
	}
	for _, p := range after {
		if p.X < 0 || p.X >= 100 || p.Y < 0 || p.Y >= 100 {
			t.Errorf("protein left the periodic domain: %+v", p)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []Protein {
		s, _ := New(small())
		s.Step(2 * units.Microsecond)
		return proteins(s)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at protein %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDiffusionSmoothsFields(t *testing.T) {
	s, _ := New(small())
	// Variance of a diffusing field must not increase (up to the small
	// protein accretion term).
	varOf := func() float64 {
		var sum, sum2 float64
		n := 0
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				v := density(s, 0, x, y)
				sum += v
				sum2 += v * v
				n++
			}
		}
		mean := sum / float64(n)
		return sum2/float64(n) - mean*mean
	}
	v0 := varOf()
	s.Step(5 * units.Microsecond)
	v1 := varOf()
	if v1 > v0*1.05 {
		t.Errorf("field variance grew: %v -> %v", v0, v1)
	}
}

func TestUpdateCouplingsFeedback(t *testing.T) {
	s, _ := New(small())
	if s.ParamVersion() != 0 {
		t.Fatal("fresh sim has nonzero param version")
	}
	c := couplings(s)
	c[1][0] = 0.9
	if err := s.UpdateCouplings(c); err != nil {
		t.Fatal(err)
	}
	if s.ParamVersion() != 1 {
		t.Errorf("ParamVersion = %d", s.ParamVersion())
	}
	if got := couplings(s)[1][0]; got != 0.9 {
		t.Errorf("coupling = %v", got)
	}
	// Shape errors rejected.
	if err := s.UpdateCouplings(c[:1]); err == nil {
		t.Error("short state list accepted")
	}
	bad := couplings(s)
	bad[0] = bad[0][:2]
	if err := s.UpdateCouplings(bad); err == nil {
		t.Error("short species row accepted")
	}
}

func TestCouplingInfluencesField(t *testing.T) {
	// A strong coupling must accumulate density at protein locations.
	cfg := small()
	cfg.Proteins = 1
	s, _ := New(cfg)
	c := couplings(s)
	for st := range c {
		c[st][0] = 5.0
	}
	s.UpdateCouplings(c)
	p := proteins(s)[0]
	cell := cfg.Domain.Nanometers() / float64(cfg.GridN)
	x, y := int(p.X/cell)%cfg.GridN, int(p.Y/cell)%cfg.GridN
	before := density(s, 0, x, y)
	s.diffuse() // single sub-step keeps the protein in place
	after := density(s, 0, x, y)
	if after <= before {
		t.Errorf("coupled density did not grow: %v -> %v", before, after)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, _ := New(small())
	s.Step(3 * units.Microsecond)
	snap := s.Snapshot()
	var buf bytes.Buffer
	n, err := snap.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != snap.Time || got.GridN != snap.GridN || got.Domain != snap.Domain {
		t.Errorf("header mismatch: %+v vs %+v", got, snap)
	}
	if len(got.Protein) != len(snap.Protein) || got.Protein[2] != snap.Protein[2] {
		t.Error("protein records mismatch")
	}
	if len(got.Fields) != len(snap.Fields) {
		t.Fatalf("fields = %d", len(got.Fields))
	}
	for i := range got.Fields {
		if !equalF32(got.Fields[i], snap.Fields[i]) {
			t.Fatalf("field %d corrupted", i)
		}
	}
}

func TestSnapshotDecodeErrors(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot decoded")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("XXXXGARBAGE"))); err == nil {
		t.Error("bad magic decoded")
	}
	s, _ := New(small())
	var buf bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(b[:len(b)-100])); err == nil {
		t.Error("truncated snapshot decoded")
	}
	// Corrupt the version.
	bad := bytes.Clone(b)
	bad[4] = 99
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("bad version decoded")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s, _ := New(small())
	snap := s.Snapshot()
	snap.Fields[0][0] = 999
	if math.Abs(density(s, 0, 0, 0)-999) < 1 {
		t.Error("snapshot aliases live fields")
	}
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
