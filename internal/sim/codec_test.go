package sim

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestBinaryCodecRoundTrip(t *testing.T) {
	g := NewCGSim("pfcg_000123", 14, 2, []float64{0.9, 0.1}, 5)
	for i := 0; i < 5; i++ {
		f := g.NextFrame()
		b, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalCGFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != f.ID() || got.State != f.State || got.TimeFs != f.TimeFs ||
			got.Tilt != f.Tilt || got.Rotation != f.Rotation || got.Depth != f.Depth {
			t.Fatalf("scalar mismatch: %+v vs %+v", got, f)
		}
		for sp := range f.RDF {
			for j := range f.RDF[sp] {
				if got.RDF[sp][j] != f.RDF[sp][j] {
					t.Fatalf("RDF[%d][%d] mismatch", sp, j)
				}
			}
		}
	}
}

func TestBinaryCodecCompactness(t *testing.T) {
	// The frame is its header plus raw float32 RDFs, nothing more: 14
	// species of 20 bins is 1.1 KB, not the several KB a text encoding
	// of the same floats takes.
	g := NewCGSim("sim", 14, 1, nil, 1)
	f := g.NextFrame()
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := 4 + 2 + len(f.SimID) + 4 + 8 + 1 + 3*8 + 2 + 2 + 14*RDFBins*4
	if len(b) != want {
		t.Errorf("binary frame %dB, want %dB", len(b), want)
	}
}

func TestDecoderRejectsJSON(t *testing.T) {
	// A frame has one encoding: the JSON of the same struct is not a
	// frame, whatever it holds.
	f := NewCGSim("json", 4, 0, nil, 2).NextFrame()
	j, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCGFrame(j); err == nil {
		t.Error("JSON frame decoded")
	}
}

func TestBinaryCodecErrors(t *testing.T) {
	if _, err := UnmarshalCGFrame([]byte("CG")); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := UnmarshalCGFrame([]byte("JSON{}")); err == nil {
		t.Error("wrong magic accepted")
	}
	g := NewCGSim("t", 3, 0, nil, 3)
	b, _ := g.NextFrame().MarshalBinary()
	for _, cut := range []int{5, 10, len(b) / 2, len(b) - 1} {
		if _, err := UnmarshalCGFrame(b[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Ragged RDF rejected at encode time.
	f := g.NextFrame()
	f.RDF[1] = f.RDF[1][:5]
	if _, err := f.MarshalBinary(); err == nil {
		t.Error("ragged RDF encoded")
	}
}

func TestPropertyBinaryCodec(t *testing.T) {
	f := func(seed int64, species uint8, state uint8) bool {
		sp := 1 + int(species)%20
		g := NewCGSim("p", sp, int(state)%3, nil, seed)
		fr := g.NextFrame()
		b, err := fr.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalCGFrame(b)
		if err != nil || got.ID() != fr.ID() || len(got.RDF) != sp {
			return false
		}
		return got.RDF[sp-1][RDFBins-1] == fr.RDF[sp-1][RDFBins-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCGFrameCodecs(b *testing.B) {
	g := NewCGSim("bench", 14, 1, nil, 1)
	f := g.NextFrame()
	b.Run("binary-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	bin, _ := f.MarshalBinary()
	b.Run("binary-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalCGFrame(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}
