package dynim

// foldRows is foldRowsGo in SSE2 (fold_amd64.s). It checks no bounds: the
// caller passes len(q) == dim and hi*dim <= len(rows).
//
//go:noescape
func foldRows(q, rows []float64, dim, lo, hi int, best float64) float64
