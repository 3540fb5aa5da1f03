package sim

import (
	"math/rand"
	"testing"
	"time"

	"mummi/internal/stats"
	"mummi/internal/units"
)

func TestContinuumPerfModes(t *testing.T) {
	// §4.1(1): 3600 cores deliver ~0.96 ms/day; Fig. 4's modes correspond to
	// allocation sizes.
	full := ContinuumPerf(3600)
	if got := full.SimFor(24 * time.Hour).Milliseconds(); got < 0.95 || got > 0.97 {
		t.Errorf("3600-core rate = %v ms/day", got)
	}
	half := ContinuumPerf(1800)
	if got := half.SimFor(24 * time.Hour).Milliseconds(); got < 0.47 || got > 0.49 {
		t.Errorf("1800-core rate = %v ms/day", got)
	}
}

func TestCGPerfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s stats.Summary
	for i := 0; i < 3000; i++ {
		r := CGPerf{}.Sample(rng, CGParticlesMean)
		s.Add(r.SimFor(24 * time.Hour).Microseconds())
	}
	// Tight around 1.04 µs/day with a slow tail below.
	if s.Mean() < 0.98 || s.Mean() > 1.06 {
		t.Errorf("CG mean = %v µs/day, want ~1.03", s.Mean())
	}
	if s.Max() > 1.04*1.1+0.01 {
		t.Errorf("CG max = %v, should not exceed benchmark by >10%%", s.Max())
	}
	if s.Min() > 0.95 {
		t.Errorf("CG min = %v: slow tail missing", s.Min())
	}
}

func TestCGPerfMPIBugEra(t *testing.T) {
	// §5.1: the miscompiled MPI delivered "almost 20% less than benchmark".
	rng := rand.New(rand.NewSource(2))
	var bug, fixed stats.Summary
	for i := 0; i < 2000; i++ {
		bug.Add(CGPerf{MPIBugEra: true}.Sample(rng, CGParticlesMean).SimFor(24 * time.Hour).Microseconds())
		fixed.Add(CGPerf{}.Sample(rng, CGParticlesMean).SimFor(24 * time.Hour).Microseconds())
	}
	ratio := bug.Mean() / fixed.Mean()
	if ratio < 0.78 || ratio > 0.82 {
		t.Errorf("bug-era ratio = %v, want ~0.8", ratio)
	}
}

func TestAAPerfMatchesBenchmark(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s stats.Summary
	for i := 0; i < 2000; i++ {
		s.Add(AAPerf{}.Sample(rng, AAAtomsMean).SimFor(24 * time.Hour).Nanoseconds())
	}
	if s.Mean() < 13.2 || s.Mean() > 14.2 {
		t.Errorf("AA mean = %v ns/day, want ~13.98", s.Mean())
	}
	// Larger systems run slower.
	big := AAPerf{}.Sample(rand.New(rand.NewSource(4)), AAAtomsMean*2)
	if big.SimFor(24*time.Hour) >= units.SimTimeOf(10, units.Nanosecond) {
		t.Error("2× atoms should run well under 10 ns/day")
	}
}

func TestSetupDurationSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s stats.Summary
	for i := 0; i < 2000; i++ {
		s.Add(SetupDuration(rng, CreatesimDuration).Hours())
	}
	if s.Mean() < 1.3 || s.Mean() > 1.7 {
		t.Errorf("createsim mean = %v h, want ~1.5", s.Mean())
	}
	if s.Min() < 0.7 || s.Max() > 4 {
		t.Errorf("duration range [%v, %v] implausible", s.Min(), s.Max())
	}
}

func TestSystemSizeSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		if p := CGParticles(rng); p < CGParticlesMean-4*CGParticlesSpread || p > CGParticlesMean+4*CGParticlesSpread {
			t.Fatalf("CG particles = %d", p)
		}
		if a := AAAtoms(rng); a < AAAtomsMean-4*AAAtomsSpread || a > AAAtomsMean+4*AAAtomsSpread {
			t.Fatalf("AA atoms = %d", a)
		}
	}
}

func TestCGSimFrameStream(t *testing.T) {
	s := NewCGSim("pfcg_0001", 5, 1, []float64{0.9, 0.1, 0.5, 0.5, 0.5}, 7)
	if s.id != "pfcg_0001" || s.state != 1 {
		t.Error("identity wrong")
	}
	f0 := s.NextFrame()
	f1 := s.NextFrame()
	if f0.Index != 0 || f1.Index != 1 {
		t.Errorf("indices %d, %d", f0.Index, f1.Index)
	}
	if f1.TimeFs <= f0.TimeFs {
		t.Error("frame time not advancing")
	}
	if s.Frames() != 2 || s.SimTime() != 2*s.FrameInterval {
		t.Errorf("Frames=%d SimTime=%v", s.Frames(), s.SimTime())
	}
	if len(f0.RDF) != 5 || len(f0.RDF[0]) != RDFBins {
		t.Fatalf("RDF shape %dx%d", len(f0.RDF), len(f0.RDF[0]))
	}
	// The strongly-coupled species (fingerprint 0.9) must show a higher
	// first-shell peak than the weak one (0.1).
	peak := func(rdf []float32) float64 {
		best := 0.0
		for _, v := range rdf {
			if float64(v) > best {
				best = float64(v)
			}
		}
		return best
	}
	if peak(f0.RDF[0]) <= peak(f0.RDF[1]) {
		t.Errorf("fingerprint not reflected: peaks %v vs %v", peak(f0.RDF[0]), peak(f0.RDF[1]))
	}
	// Conformational coordinates stay in physical ranges.
	for i := 0; i < 500; i++ {
		f := s.NextFrame()
		if f.Tilt < 0 || f.Tilt > 180 || f.Rotation < 0 || f.Rotation >= 360 ||
			f.Depth < -5 || f.Depth > 5 {
			t.Fatalf("coordinates out of range: %+v", f)
		}
	}
}

func TestCGSimDeterministic(t *testing.T) {
	a := NewCGSim("x", 3, 0, nil, 42)
	b := NewCGSim("x", 3, 0, nil, 42)
	for i := 0; i < 10; i++ {
		fa, fb := a.NextFrame(), b.NextFrame()
		if fa.Tilt != fb.Tilt || fa.RDF[0][3] != fb.RDF[0][3] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestCGFrameSerialization(t *testing.T) {
	s := NewCGSim("sim1", 4, 2, nil, 1)
	f := s.NextFrame()
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCGFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != f.ID() || got.State != f.State || got.RDF[2][5] != f.RDF[2][5] {
		t.Error("round trip mismatch")
	}
	if _, err := UnmarshalCGFrame([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestAASimFrameStream(t *testing.T) {
	s := NewAASim("aa_0001", 11)
	f := s.NextFrame()
	if len(f.SecStruct) != SecStructResidues {
		t.Fatalf("SecStruct len = %d", len(f.SecStruct))
	}
	for _, c := range f.SecStruct {
		if c != 'H' && c != 'E' && c != 'C' {
			t.Fatalf("invalid code %q", c)
		}
	}
	if s.FrameInterval != 100*units.Picosecond {
		t.Errorf("frame interval = %v, want 0.1 ns", s.FrameInterval)
	}
	// Structure drifts but slowly: consecutive frames mostly agree.
	g := s.NextFrame()
	same := 0
	for i := range f.SecStruct {
		if f.SecStruct[i] == g.SecStruct[i] {
			same++
		}
	}
	if same < SecStructResidues*8/10 {
		t.Errorf("structure changed too fast: %d/%d stable", same, SecStructResidues)
	}
}

func TestAAFrameSerialization(t *testing.T) {
	s := NewAASim("aa1", 1)
	f := s.NextFrame()
	b, _ := f.Marshal()
	got, err := UnmarshalAAFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SecStruct != f.SecStruct {
		t.Error("round trip mismatch")
	}
	if _, err := UnmarshalAAFrame([]byte(`{"sim":"x","idx":0}`)); err == nil {
		t.Error("frame without structure accepted")
	}
}

func TestConsensusSecStruct(t *testing.T) {
	frames := []*AAFrame{
		{SimID: "a", SecStruct: "HHC"},
		{SimID: "a", SecStruct: "HEC"},
		{SimID: "a", SecStruct: "HHE"},
	}
	got, err := ConsensusSecStruct(frames)
	if err != nil {
		t.Fatal(err)
	}
	if got != "HHC" {
		t.Errorf("consensus = %q, want HHC", got)
	}
	if _, err := ConsensusSecStruct(nil); err == nil {
		t.Error("empty consensus accepted")
	}
	if _, err := ConsensusSecStruct([]*AAFrame{{SecStruct: "HH"}, {SecStruct: "H"}}); err == nil {
		t.Error("ragged frames accepted")
	}
	if _, err := ConsensusSecStruct([]*AAFrame{{SecStruct: "HX"}}); err == nil {
		t.Error("invalid code accepted")
	}
}

func TestConsensusTieBreak(t *testing.T) {
	frames := []*AAFrame{
		{SecStruct: "HE"},
		{SecStruct: "EH"},
	}
	got, err := ConsensusSecStruct(frames)
	if err != nil {
		t.Fatal(err)
	}
	if got != "HH" { // ties resolve H > E > C
		t.Errorf("tie consensus = %q", got)
	}
}

func TestPublishedConstants(t *testing.T) {
	// Guard the paper's numbers against accidental edits.
	if CGFrameBytes.String() != "4.60MB" {
		t.Errorf("CGFrameBytes = %v", CGFrameBytes)
	}
	if AAFrameBytes.String() != "18.00MB" {
		t.Errorf("AAFrameBytes = %v", AAFrameBytes)
	}
	if CGMaxLength != 5*units.Microsecond {
		t.Errorf("CGMaxLength = %v", CGMaxLength)
	}
	if AAMinLength != 50*units.Nanosecond || AAMaxLength != 65*units.Nanosecond {
		t.Errorf("AA length bounds = %v..%v", AAMinLength, AAMaxLength)
	}
}
