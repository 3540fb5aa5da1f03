//go:build !amd64

package dynim

// haveAVX2 is false wherever fold_amd64.s is not; the tests read it on every
// GOARCH.
var haveAVX2 bool

// foldRows is foldRowsGo wherever fold_amd64.s is not.
func foldRows(q, rows []float64, dim, lo, hi int, best float64) float64 {
	return foldRowsGo(q, rows, dim, lo, hi, best)
}
