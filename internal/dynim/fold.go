package dynim

// foldRowsGo returns the smaller of best and the least squared L2 distance
// from q (len dim) to rows [lo, hi) of the row-major rows.
//
// This loop, not fold_amd64.s, defines the FPS distance kernel: it is
// foldRows' body on every GOARCH without assembly and the oracle fold_test.go
// holds the assembly to, bit for bit — selection order, and with it
// bench/reference/*.sha256 and the scenario ledgers, follows from these bits.
// Four accumulators a0..a3 each take one coordinate of every block of four
// (so the sum does not serialize on FP-add latency), the dim%4 tail goes to
// a0 in index order, a row's distance is (a0+a1)+(a2+a3), and best moves only
// on a strict acc < best, so never to NaN. Products are written float64(d*d):
// the conversion forbids fusing the multiply into the add (Go spec,
// "Floating-point operators"), which arm64, ppc64le, s390x and riscv64
// otherwise do, rounding once where amd64 rounds twice; scripts/ci.sh checks
// the arm64 listing.
func foldRowsGo(q, rows []float64, dim, lo, hi int, best float64) float64 {
	q = q[:dim:dim]
	for r := lo; r < hi; r++ {
		// Re-slicing the row to len(q) lets the compiler prove both q[j+k]
		// and row[j+k] in bounds from the single j+4 <= len(q) loop
		// condition — no per-element checks in the unrolled body.
		row := rows[r*dim : r*dim+dim : r*dim+dim]
		row = row[:len(q)]
		var a0, a1, a2, a3 float64
		j := 0
		for ; j+4 <= len(q); j += 4 {
			qs, rs := q[j:j+4:j+4], row[j:j+4:j+4]
			d0 := qs[0] - rs[0]
			d1 := qs[1] - rs[1]
			d2 := qs[2] - rs[2]
			d3 := qs[3] - rs[3]
			a0 += float64(d0 * d0)
			a1 += float64(d1 * d1)
			a2 += float64(d2 * d2)
			a3 += float64(d3 * d3)
		}
		for ; j < len(q); j++ {
			d := q[j] - row[j]
			a0 += float64(d * d)
		}
		if acc := (a0 + a1) + (a2 + a3); acc < best {
			best = acc
		}
	}
	return best
}
