package dynim

// haveAVX2 is the CPU probe's verdict, taken once at init: CPUID reports
// AVX2 and OSXSAVE, and XGETBV reports that the OS saves YMM state. Hosts
// without it run foldRowsGo for every row. Tests force it false to run the
// Go body end to end; nothing else writes it.
var haveAVX2 = cpuHasAVX2()

// foldRows is foldRowsGo with its whole blocks of four rows folded by
// foldBlocks (fold_amd64.s) when haveAVX2: the rows before the first and
// after the last whole block in [lo, hi) go through foldRowsGo. Every row
// lands with a strict <, and no NaN and no −0 ever does, so the minimum does
// not depend on which body folded which row or in what order.
func foldRows(q, rows []float64, dim, lo, hi int, best float64) float64 {
	b0, b1 := (lo+3)&^3, hi&^3
	if !haveAVX2 || b0 >= b1 {
		return foldRowsGo(q, rows, dim, lo, hi, best)
	}
	best = foldRowsGo(q, rows, dim, lo, b0, best)
	best = foldBlocks(q[:dim], rows[b0*dim:b1*dim], dim, best)
	return foldRowsGo(q, rows, dim, b1, hi, best)
}

// foldBlocks is foldRowsGo over whole blocks, one row per YMM lane. It
// checks no bounds; foldRows' slicing does: len(q) == dim and len(blocks) is
// a multiple of 4*dim.
//
//go:noescape
func foldBlocks(q, blocks []float64, dim int, best float64) float64

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	// OSXSAVE says XGETBV exists; XGETBV says the OS saves XMM and YMM state.
	if maxLeaf < 7 || c&(1<<27) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32
