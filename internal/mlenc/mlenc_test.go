package mlenc

import (
	"math"
	"testing"

	"mummi/internal/continuum"
	"mummi/internal/patch"
	"mummi/internal/units"
)

func mkPatch(t *testing.T, seed int64) *patch.Patch {
	t.Helper()
	sim, err := continuum.New(continuum.Config{
		GridN: 64, Domain: 200 * units.Nm, InnerLipids: 3, OuterLipids: 2,
		Proteins: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(1 * units.Microsecond)
	snap := sim.Snapshot()
	p, err := patch.Create(snap, snap.Protein[0], patch.DefaultSize, patch.DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEncoderShapeAndDeterminism(t *testing.T) {
	p := mkPatch(t, 5)
	e, err := NewPatchEncoder(5, 37, 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 9 {
		t.Fatalf("encoding dim = %d", len(a))
	}
	b, _ := e.Encode(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoder not deterministic")
		}
	}
	// A second encoder with the same seed produces identical encodings
	// (restart reproducibility).
	e2, _ := NewPatchEncoder(5, 37, 9, 42)
	c, _ := e2.Encode(p)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same-seed encoders disagree")
		}
	}
}

func TestEncoderSeparatesDifferentPatches(t *testing.T) {
	e, _ := NewPatchEncoder(5, 37, 9, 42)
	a, _ := e.Encode(mkPatch(t, 5))
	b, _ := e.Encode(mkPatch(t, 6))
	d := 0.0
	for i := range a {
		d += (a[i] - b[i]) * (a[i] - b[i])
	}
	if math.Sqrt(d) < 1e-6 {
		t.Error("different patches collapsed to the same encoding")
	}
}

func TestEncoderContinuity(t *testing.T) {
	// A tiny density perturbation must move the encoding only slightly
	// relative to the spread between genuinely different patches.
	e, _ := NewPatchEncoder(5, 37, 9, 42)
	p := mkPatch(t, 5)
	a, _ := e.Encode(p)
	for sp := range p.Fields {
		for i := range p.Fields[sp] {
			p.Fields[sp][i] += 1e-4
		}
	}
	b, _ := e.Encode(p)
	var small float64
	for i := range a {
		small += (a[i] - b[i]) * (a[i] - b[i])
	}
	q, _ := e.Encode(mkPatch(t, 7))
	var large float64
	for i := range a {
		large += (a[i] - q[i]) * (a[i] - q[i])
	}
	if math.Sqrt(small) > math.Sqrt(large)/10 {
		t.Errorf("perturbation moved encoding %v, inter-patch distance %v",
			math.Sqrt(small), math.Sqrt(large))
	}
}

func TestEncoderShapeMismatch(t *testing.T) {
	e, _ := NewPatchEncoder(8, 37, 9, 1)
	if _, err := e.Encode(mkPatch(t, 5)); err == nil { // patch has 5 species
		t.Error("species mismatch accepted")
	}
}

func TestNewPatchEncoderValidation(t *testing.T) {
	for _, c := range [][3]int{{0, 37, 9}, {5, 2, 9}, {5, 37, 0}} {
		if _, err := NewPatchEncoder(c[0], c[1], c[2], 1); err == nil {
			t.Errorf("shape %v accepted", c)
		}
	}
}
