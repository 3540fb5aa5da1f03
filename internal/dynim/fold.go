package dynim

// The selected rows are stored four to a block, dimension-major within a
// block: element j of row r is rows[r/4*4*dim + 4*j + r%4], so coordinate j
// of four consecutive rows is four adjacent float64s — one 256-bit load, one
// row per SIMD lane (fold_amd64.s). The last block is zero-padded; no fold
// reads past row hi.

// appendRow stores coords (one dim-wide row) as row r of the blocked rows,
// which hold rows [0, r): a new zeroed block when r starts one, then one
// lane of it.
func appendRow(rows []float64, r int, coords []float64) []float64 {
	dim := len(coords)
	if r%4 == 0 {
		rows = append(rows, make([]float64, 4*dim)...)
	}
	blk := rows[r/4*4*dim:]
	for j, c := range coords {
		blk[4*j+r%4] = c
	}
	return rows
}

// foldRowsGo returns the smaller of best and the least squared L2 distance
// from q (len dim) to rows [lo, hi) of the blocked rows.
//
// This loop, not fold_amd64.s, defines the FPS distance kernel: it is
// foldRows' body on every GOARCH without assembly and on amd64 hosts without
// AVX2, it folds the rows before the first and after the last whole block on
// the ones with it, and it is the oracle fold_test.go holds the assembly to,
// bit for bit — selection order, and with it bench/reference/*.sha256 and the
// scenario ledgers, follows from these bits. Four accumulators a0..a3 each
// take one coordinate of every group of four (so the sum does not serialize
// on FP-add latency), the dim%4 tail goes to a0 in index order, a row's
// distance is (a0+a1)+(a2+a3), and best moves only on a strict acc < best, so
// never to NaN. Products are written float64(d*d): the conversion forbids
// fusing the multiply into the add (Go spec, "Floating-point operators"),
// which arm64, ppc64le, s390x and riscv64 otherwise do, rounding once where
// amd64 rounds twice; scripts/ci.sh checks the arm64 listing.
func foldRowsGo(q, rows []float64, dim, lo, hi int, best float64) float64 {
	q = q[:dim:dim]
	for r := lo; r < hi; r++ {
		// row[4*j] is coordinate j. Re-slicing each group of four coordinates
		// to 13 elements leaves one bounds check per group, not four.
		base := r/4*4*dim + r%4
		row := rows[base : base+4*dim-3]
		var a0, a1, a2, a3 float64
		j := 0
		for ; j+4 <= len(q); j += 4 {
			qs, rs := q[j:j+4:j+4], row[4*j:4*j+13]
			d0 := qs[0] - rs[0]
			d1 := qs[1] - rs[4]
			d2 := qs[2] - rs[8]
			d3 := qs[3] - rs[12]
			a0 += float64(d0 * d0)
			a1 += float64(d1 * d1)
			a2 += float64(d2 * d2)
			a3 += float64(d3 * d3)
		}
		for ; j < len(q); j++ {
			d := q[j] - row[4*j]
			a0 += float64(d * d)
		}
		if acc := (a0 + a1) + (a2 + a3); acc < best {
			best = acc
		}
	}
	return best
}
