package dynim

import (
	"math"
	"math/rand"
	"testing"
)

// blocked returns row-major rows (dim wide) in the selected-row layout,
// appended one row at a time as Select appends them.
func blocked(rows []float64, dim int) []float64 {
	var out []float64
	for r := 0; r < len(rows)/dim; r++ {
		out = appendRow(out, r, rows[r*dim:(r+1)*dim])
	}
	return out
}

// withGoBody runs test and, on a host where foldRows takes the assembly,
// runs it again with the CPU probe's verdict forced false, so the Go body is
// held to the same oracle end to end.
func withGoBody(t *testing.T, test func(*testing.T)) {
	test(t)
	if !haveAVX2 {
		return
	}
	t.Run("go-body", func(t *testing.T) {
		haveAVX2 = false
		defer func() { haveAVX2 = true }()
		test(t)
	})
}

// foldCase is one call's arguments, rows row-major; both kernels read the
// same blocked copy.
type foldCase struct {
	q, rows []float64
	dim     int
	lo, hi  int
	best    float64
}

func (c foldCase) both() (got, want uint64) {
	rows := blocked(c.rows, c.dim)
	return math.Float64bits(foldRows(c.q, rows, c.dim, c.lo, c.hi, c.best)),
		math.Float64bits(foldRowsGo(c.q, rows, c.dim, c.lo, c.hi, c.best))
}

// rowMajorFold is the kernel's specification on row-major rows, through the
// same from-scratch distance the FPS oracle uses: what foldRowsGo must give
// on the blocked layout, whichever rows of a block it is handed.
func rowMajorFold(c foldCase) float64 {
	sel := make([][]float64, 0, c.hi-c.lo)
	for r := c.lo; r < c.hi; r++ {
		sel = append(sel, c.rows[r*c.dim:(r+1)*c.dim])
	}
	best := c.best
	if d := oracleDist2(c.q, sel); d < best {
		best = d
	}
	return best
}

// checkFold holds foldRows and foldRowsGo on the blocked rows to each other
// and to rowMajorFold, bit for bit.
func checkFold(t *testing.T, c foldCase) {
	t.Helper()
	got, want := c.both()
	spec := math.Float64bits(rowMajorFold(c))
	if got != want || want != spec {
		t.Fatalf("dim %d rows [%d,%d) of %d best %v: foldRows %#016x, foldRowsGo %#016x, row-major %#016x\nq=%v\nrows=%v",
			c.dim, c.lo, c.hi, len(c.rows)/c.dim, c.best, got, want, spec, c.q, c.rows)
	}
}

// TestPropertyFoldRowsMatchesPortable holds foldRows to foldRowsGo bit for
// bit: dims 1–17 (zero, one and many groups of four; tails 0–3), empty and
// partial row ranges that start and end anywhere in a block, a best that
// every row beats, none beats, and some beat, and rows holding ±Inf and NaN.
// On an AVX2 host that is the assembly against its definition; elsewhere the
// two are one function and TestFoldRowsKnownAnswers carries the weight.
func TestPropertyFoldRowsMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e308, -1e308, 5e-324}
	for dim := 1; dim <= 17; dim++ {
		for trial := 0; trial < 200; trial++ {
			nrows := rng.Intn(24)
			c := foldCase{dim: dim, q: make([]float64, dim), rows: make([]float64, nrows*dim)}
			for i := range c.q {
				c.q[i] = rng.NormFloat64()
			}
			for i := range c.rows {
				c.rows[i] = rng.NormFloat64()
			}
			if trial%4 == 3 { // non-finite and extreme coordinates, on either side
				for k := rng.Intn(4); k >= 0 && nrows > 0; k-- {
					c.rows[rng.Intn(len(c.rows))] = special[rng.Intn(len(special))]
				}
				if rng.Intn(3) == 0 {
					c.q[rng.Intn(dim)] = special[rng.Intn(len(special))]
				}
			}
			c.lo = rng.Intn(nrows + 1)
			c.hi = c.lo + rng.Intn(nrows-c.lo+1)
			if trial%8 == 0 {
				c.hi = c.lo
			}
			for _, best := range []float64{math.Inf(1), 0, float64(dim) * rng.Float64() * 2, math.NaN()} {
				c.best = best
				checkFold(t, c)
			}
		}
	}
}

// TestFoldRowsEveryRange folds every range [lo, hi) of 13 rows, dims 1–17:
// ranges inside one block, ranges whose ends are not multiples of four, and
// whole blocks with a head and a tail around them. Row 2 is all NaN, row 6
// holds +Inf and row 9 −Inf, and row 11 repeats row 4, so ties, a NaN
// distance and an infinite one each land in head, block and tail positions.
func TestFoldRowsEveryRange(t *testing.T) {
	const nrows = 13
	rng := rand.New(rand.NewSource(35))
	for dim := 1; dim <= 17; dim++ {
		c := foldCase{dim: dim, q: make([]float64, dim), rows: make([]float64, nrows*dim)}
		for i := range c.q {
			c.q[i] = rng.NormFloat64()
		}
		for i := range c.rows {
			c.rows[i] = rng.NormFloat64()
		}
		row := func(r int) []float64 { return c.rows[r*dim : (r+1)*dim] }
		for j := range row(2) {
			row(2)[j] = math.NaN()
		}
		row(6)[dim/2] = math.Inf(1)
		row(9)[dim-1] = math.Inf(-1)
		copy(row(11), row(4))
		for c.lo = 0; c.lo <= nrows; c.lo++ {
			for c.hi = c.lo; c.hi <= nrows; c.hi++ {
				for _, best := range []float64{math.Inf(1), float64(dim) / 2, math.NaN()} {
					c.best = best
					checkFold(t, c)
				}
			}
		}
	}
}

// fusedFold is foldRowsGo as a compiler free to fuse would build it: every
// accumulation one math.FMA, rounding once where the definition rounds twice.
// It is the negative control for TestFoldRowsKnownAnswers.
func fusedFold(q, rows []float64, dim, lo, hi int, best float64) float64 {
	for r := lo; r < hi; r++ {
		row := rows[r*dim : r*dim+dim]
		var a [4]float64
		for j := 0; j < dim; j++ {
			k := j % 4
			if j >= dim-dim%4 {
				k = 0
			}
			d := q[j] - row[j]
			a[k] = math.FMA(d, d, a[k])
		}
		if acc := (a[0] + a[1]) + (a[2] + a[3]); acc < best {
			best = acc
		}
	}
	return best
}

// TestFoldRowsKnownAnswers pins the kernel's rounding to recorded bits, so a
// host without the assembly is held to the answers amd64 gives. Inputs come
// from a fixed LCG; each seed was picked so that the fused control lands on
// different bits wherever fusing can matter (an accumulator that receives a
// single product, as in dims 1 and 4, rounds the same either way), which
// is what shows the literals would catch a multiply-add creeping in.
func TestFoldRowsKnownAnswers(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		dim, nrows int
		seed       uint64
		best       float64
		want       uint64
		fuses      bool
	}{
		{1, 5, 1, inf, 0x3f9aab699b41ac63, false},
		{2, 4, 4, inf, 0x401c58c86725438c, true},
		{3, 7, 1, inf, 0x3ffaf553e0c33264, true},
		{4, 6, 1, inf, 0x3fe2e0678e98a860, false},
		{5, 3, 1, inf, 0x4025dbe2c4cfa8ae, true},
		{8, 3, 8, inf, 0x402bcef6b21c8546, true},
		{9, 8, 11, inf, 0x40200bb8b1e1254d, true},
		{17, 4, 1, inf, 0x4040fc3b3a79647b, true},
		{9, 8, 11, 1.5, 0x3ff8000000000000, false},  // no row beats best
		{9, 0, 11, 0.25, 0x3fd0000000000000, false}, // no rows
	} {
		x := tc.seed
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(int64(x)>>11) / (1 << 51) // [-2, 2), 53 bits
		}
		c := foldCase{dim: tc.dim, hi: tc.nrows, best: tc.best,
			q: make([]float64, tc.dim), rows: make([]float64, tc.nrows*tc.dim)}
		for i := range c.q {
			c.q[i] = next()
		}
		for i := range c.rows {
			c.rows[i] = next()
		}
		got, portable := c.both()
		if got != tc.want || portable != tc.want {
			t.Errorf("dim %d rows %d seed %d best %v: foldRows %#016x, foldRowsGo %#016x, want %#016x",
				tc.dim, tc.nrows, tc.seed, tc.best, got, portable, tc.want)
		}
		fused := math.Float64bits(fusedFold(c.q, c.rows, c.dim, c.lo, c.hi, c.best))
		if (fused != tc.want) != tc.fuses {
			t.Errorf("dim %d rows %d seed %d: fused control %#016x, want %#016x; differ should be %v",
				tc.dim, tc.nrows, tc.seed, fused, tc.want, tc.fuses)
		}
	}
}

var foldSink float64

// BenchmarkFPSFoldRows times the kernel on the replay's shape — one 9-D
// candidate against 8,000 selected rows, what an arrival costs late in a
// replay-paper queue — and reports ns per row, for the assembly (skipped on a
// host without AVX2) and for foldRowsGo, what such a host runs.
func BenchmarkFPSFoldRows(b *testing.B) {
	const dim, nrows = 9, 8000
	rng := rand.New(rand.NewSource(42))
	q, rows := make([]float64, dim), make([]float64, nrows*dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	rows = blocked(rows, dim)
	for _, body := range []struct {
		name string
		fold func(q, rows []float64, dim, lo, hi int, best float64) float64
	}{{"asm", foldRows}, {"go", foldRowsGo}} {
		b.Run(body.name, func(b *testing.B) {
			if body.name == "asm" && !haveAVX2 {
				b.Skip("no AVX2: foldRows runs foldRowsGo")
			}
			for i := 0; i < b.N; i++ {
				foldSink = body.fold(q, rows, dim, 0, nrows, math.Inf(1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nrows, "ns/row")
		})
	}
}
