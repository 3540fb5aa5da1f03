package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("N = %d", s.n)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.n != 0 {
		t.Error("empty summary should be all zero")
	}
	s.Add(-3)
	if s.Std() != 0 {
		t.Error("single-sample std must be 0")
	}
	if s.Min() != -3 || s.Max() != -3 {
		t.Errorf("Min/Max after one negative sample: %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.String(); !strings.Contains(got, "mean=2") || !strings.Contains(got, "n=2") {
		t.Errorf("String() = %q", got)
	}
}

func TestHistogramBinningAndClamp(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)  // bin 0
	h.Add(9.5)  // bin 9
	h.Add(-5)   // clamped to bin 0
	h.Add(99)   // clamped to bin 9
	h.Add(5)    // bin 5
	h.Add(10.0) // exactly Hi clamps to last bin
	if h.Counts[0] != 2 || h.Counts[9] != 3 || h.Counts[5] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if h.n != 6 {
		t.Errorf("N = %d", h.n)
	}
	if c := h.BinCenter(0); c != 0.5 {
		t.Errorf("BinCenter(0) = %v", c)
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and bins<1 both repaired
	h.Add(5)
	if h.n != 1 || len(h.Counts) != 1 {
		t.Errorf("degenerate histogram: n=%d bins=%d", h.n, len(h.Counts))
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.5)
	out := h.Render("test")
	if !strings.Contains(out, "# test (n=3)") {
		t.Errorf("Render missing header: %q", out)
	}
	if !strings.Contains(out, "##") {
		t.Errorf("Render missing bars: %q", out)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-10, 1}, {110, 5}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty slice percentile must be 0")
	}
	// Must not mutate the input.
	xs2 := []float64{3, 1, 2}
	Percentile(xs2, 50)
	if xs2[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{10, 2, 8, 4, 6}
	if m := Median(xs); m != 6 {
		t.Errorf("Median = %v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"#nodes", "wall-time", "#runs", "node hours"}}
	tb.AddRow("100", "6 hours", "5", "3000")
	tb.AddRow("4000", "24 hours", "1", "96,000")
	out := tb.String()
	if !strings.Contains(out, "#nodes") || !strings.Contains(out, "96,000") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines (header, rule, 2 rows), got %d:\n%s", len(lines), out)
	}
}

func TestPropertySummaryMatchesDirectComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		va := 0.0
		for _, x := range xs {
			va += (x - mean) * (x - mean)
		}
		std := math.Sqrt(va / float64(n-1))
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Std()-std) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHistogramConservesCount(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(-100, 100, 37)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == h.n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
