// Package stats provides the small statistical toolkit the evaluation
// harness needs: streaming summaries (mean/std/min/max), fixed-bin
// histograms, percentiles, and labeled series that print in the same
// rows-and-columns form as the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a streaming summary of a sequence of float64 samples
// using Welford's algorithm, so it is numerically stable for millions of
// samples of similar magnitude (e.g. per-frame feedback latencies).
type Summary struct {
	n         int
	mean, m2  float64
	min, max  float64
	populated bool
}

// Add incorporates one sample.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.populated || x < s.min {
		s.min = x
	}
	if !s.populated || x > s.max {
		s.max = x
	}
	s.populated = true
}

// N returns the number of samples added.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 for n < 2).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// String renders the summary in the figure-caption form
// "mean=… std=… [min, max] n=…".
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.4g std=%.4g [%.4g, %.4g] n=%d",
		s.Mean(), s.Std(), s.Min(), s.Max(), s.n)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range are clamped to the first/last bin so that distribution tails
// remain visible, matching how the paper's figures render outliers.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	n      int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.n++
}

// N returns the total number of samples.
func (h *Histogram) N() int { return h.n }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// FractionAtLeast returns the fraction of samples with value >= x.
// It is used for statements like "98% GPU occupancy for 83% of the time".
func (h *Histogram) FractionAtLeast(x float64) float64 {
	if h.n == 0 {
		return 0
	}
	c := 0
	for i := range h.Counts {
		w := (h.Hi - h.Lo) / float64(len(h.Counts))
		lo := h.Lo + float64(i)*w
		if lo >= x {
			c += h.Counts[i]
		}
	}
	return float64(c) / float64(h.n)
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// Render prints the histogram as rows of "center count" with an ASCII bar,
// so `mummi-sim exp` output can be eyeballed or piped into a plotter.
func (h *Histogram) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (n=%d)\n", label, h.n)
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*50/maxC)
		fmt.Fprintf(&b, "%12.5g %8d %s\n", h.BinCenter(i), c, bar)
	}
	return b.String()
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FractionWithin returns the fraction of xs with value <= limit.
func FractionWithin(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, x := range xs {
		if x <= limit {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// Series is a labeled (x, y) series for figure output.
type Series struct {
	Name string
	X, Y []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Table is a simple column-aligned text table used by the bench harness to
// print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = len(hcell)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
