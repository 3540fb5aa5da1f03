package patch

import (
	"strings"
	"testing"

	"mummi/internal/continuum"
	"mummi/internal/units"
)

func snapT(t *testing.T) *continuum.Snapshot {
	t.Helper()
	sim, err := continuum.New(continuum.Config{
		GridN: 64, Domain: 200 * units.Nm, InnerLipids: 3, OuterLipids: 2,
		Proteins: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(1 * units.Microsecond)
	return sim.Snapshot()
}

func TestCreatePatchShape(t *testing.T) {
	snap := snapT(t)
	p, err := Create(snap, snap.Protein[0], DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	if p.GridN != 37 || len(p.Fields) != 5 {
		t.Errorf("patch shape: gridN=%d species=%d", p.GridN, len(p.Fields))
	}
	for _, f := range p.Fields {
		if len(f) != 37*37 {
			t.Fatalf("field has %d cells", len(f))
		}
	}
	if p.Center.ID != snap.Protein[0].ID {
		t.Error("center mismatch")
	}
	if !strings.HasPrefix(p.ID, "t000001_p") {
		t.Errorf("ID = %q", p.ID)
	}
}

func TestCreateAllOnePatchPerProtein(t *testing.T) {
	snap := snapT(t)
	ps, err := CreateAll(snap, DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(snap.Protein) {
		t.Fatalf("%d patches for %d proteins", len(ps), len(snap.Protein))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.ID] {
			t.Errorf("duplicate patch ID %q", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestPatchSamplesUnderlyingField(t *testing.T) {
	// A patch's center sample must approximate the density at the protein's
	// position (bilinear continuity).
	snap := snapT(t)
	prot := snap.Protein[0]
	p, err := Create(snap, prot, DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	cell := snap.Domain.Nanometers() / float64(snap.GridN)
	gx := int(prot.X/cell) % snap.GridN
	gy := int(prot.Y/cell) % snap.GridN
	fieldVal := float64(snap.Fields[0][gy*snap.GridN+gx])
	patchVal := float64(p.Fields[0][(p.GridN/2)*p.GridN+p.GridN/2])
	if diff := patchVal - fieldVal; diff > 0.2 || diff < -0.2 {
		t.Errorf("patch center %v far from field %v", patchVal, fieldVal)
	}
}

func TestNeighborsDetected(t *testing.T) {
	snap := snapT(t)
	// Plant a neighbor 5 nm from protein 0 and a loner far away.
	snap.Protein = snap.Protein[:0]
	snap.Protein = append(snap.Protein,
		continuum.Protein{ID: 0, X: 100, Y: 100, State: 0},
		continuum.Protein{ID: 1, X: 105, Y: 100, State: 1},
		continuum.Protein{ID: 2, X: 30, Y: 30, State: 0},
	)
	p, err := Create(snap, snap.Protein[0], DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neighbors) != 1 || p.Neighbors[0].ID != 1 {
		t.Errorf("Neighbors = %+v", p.Neighbors)
	}
}

func TestNeighborAcrossPeriodicBoundary(t *testing.T) {
	snap := snapT(t)
	snap.Protein = []continuum.Protein{
		{ID: 0, X: 1, Y: 1},
		{ID: 1, X: 199, Y: 199}, // 2·sqrt(2) nm away through the corner
	}
	p, err := Create(snap, snap.Protein[0], DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neighbors) != 1 {
		t.Errorf("periodic neighbor missed: %+v", p.Neighbors)
	}
}

func TestCreateValidation(t *testing.T) {
	snap := snapT(t)
	if _, err := Create(snap, snap.Protein[0], DefaultSize, 1); err == nil {
		t.Error("gridN=1 accepted")
	}
	if _, err := Create(snap, snap.Protein[0], 0, DefaultGridN); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := Create(snap, snap.Protein[0], 300*units.Nm, DefaultGridN); err == nil {
		t.Error("patch larger than domain accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	snap := snapT(t)
	orig, err := Create(snap, snap.Protein[2], DefaultSize, DefaultGridN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := orig.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != orig.ID || got.Time != orig.Time || got.GridN != orig.GridN ||
		got.Size != orig.Size || got.Center != orig.Center {
		t.Errorf("metadata mismatch: %+v vs %+v", got, orig)
	}
	if len(got.Fields) != len(orig.Fields) {
		t.Fatal("species count changed")
	}
	for sp := range got.Fields {
		for i := range got.Fields[sp] {
			if got.Fields[sp][i] != orig.Fields[sp][i] {
				t.Fatalf("field %d cell %d corrupted", sp, i)
			}
		}
	}
}

func TestMarshalSizeMatchesPaper(t *testing.T) {
	// 14 species × 37×37 float32 ≈ 77 KB — the paper's "about 70 KB".
	p := &Patch{ID: "x", GridN: 37, Size: DefaultSize}
	for i := 0; i < 14; i++ {
		p.Fields = append(p.Fields, make([]float32, 37*37))
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 60_000 || len(b) > 90_000 {
		t.Errorf("paper-scale patch = %d bytes, want ~70-77 KB", len(b))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("no newline at all")); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := Unmarshal([]byte("{bad json\nrest")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Unmarshal([]byte("{\"grid_n\":37}\nnot npy")); err == nil {
		t.Error("bad npy accepted")
	}
}
