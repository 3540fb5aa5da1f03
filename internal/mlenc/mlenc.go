// Package mlenc provides the patch encoder behind the paper's ML-based
// selection (§4.1(6)): it reduces a 37×37 multi-species density patch to a
// 9-D representation. The frame side's 3-D RAS-RAF code needs no encoder
// here: the campaign models frame coordinates directly in [0,1]³.
//
// The paper's patch encoder is a metric-learning deep neural network. We
// substitute a deterministic fixed-weight multilayer perceptron over patch
// density features: it preserves what selection actually needs — a stable
// map where similar patches land close in 9-D and dissimilar ones spread
// out — without a training pipeline (see DESIGN.md substitutions). Weights
// are derived from a seed, so encodings are reproducible across restarts,
// which the selector's checkpoint/replay machinery relies on.
package mlenc

import (
	"fmt"
	"math"
	"math/rand"

	"mummi/internal/patch"
)

// PatchEncoder maps patches to outDim-dimensional vectors (NewPatchEncoder).
type PatchEncoder struct {
	species int
	gridN   int

	// Two-layer MLP: features -> hidden (tanh) -> out.
	w1 [][]float64
	b1 []float64
	w2 [][]float64
	b2 []float64
}

// featuresPerSpecies is the number of summary features extracted per
// species field: mean, variance, center density, radial gradient, and two
// quadrant asymmetries.
const featuresPerSpecies = 6

// NewPatchEncoder builds an encoder for patches with the given species
// count and grid resolution. outDim is 9 in the paper.
func NewPatchEncoder(species, gridN, outDim int, seed int64) (*PatchEncoder, error) {
	if species < 1 || gridN < 3 || outDim < 1 {
		return nil, fmt.Errorf("mlenc: invalid encoder shape species=%d gridN=%d outDim=%d",
			species, gridN, outDim)
	}
	in := species * featuresPerSpecies
	hidden := 2*in + 8
	rng := rand.New(rand.NewSource(seed))
	e := &PatchEncoder{species: species, gridN: gridN}
	e.w1, e.b1 = randomLayer(rng, in, hidden)
	e.w2, e.b2 = randomLayer(rng, hidden, outDim)
	return e, nil
}

func randomLayer(rng *rand.Rand, in, out int) ([][]float64, []float64) {
	w := make([][]float64, out)
	scale := 1.0 / math.Sqrt(float64(in))
	for i := range w {
		w[i] = make([]float64, in)
		for j := range w[i] {
			w[i][j] = rng.NormFloat64() * scale
		}
	}
	b := make([]float64, out)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.1
	}
	return w, b
}

// Encode reduces a patch to its outDim-dimensional (9-D) representation.
func (e *PatchEncoder) Encode(p *patch.Patch) ([]float64, error) {
	if len(p.Fields) != e.species || p.GridN != e.gridN {
		return nil, fmt.Errorf("mlenc: patch shape (%d species, %d grid) does not match encoder (%d, %d)",
			len(p.Fields), p.GridN, e.species, e.gridN)
	}
	feats := e.features(p)
	h := forward(e.w1, e.b1, feats, true)
	return forward(e.w2, e.b2, h, false), nil
}

// features extracts per-species density summaries.
func (e *PatchEncoder) features(p *patch.Patch) []float64 {
	n := p.GridN
	c := n / 2
	out := make([]float64, 0, e.species*featuresPerSpecies)
	for _, f := range p.Fields {
		var sum, sum2 float64
		for _, v := range f {
			sum += float64(v)
			sum2 += float64(v) * float64(v)
		}
		cnt := float64(len(f))
		mean := sum / cnt
		variance := sum2/cnt - mean*mean
		center := float64(f[c*n+c])
		// Radial gradient: center ring vs edge ring.
		var edge float64
		for i := 0; i < n; i++ {
			edge += float64(f[i]) + float64(f[(n-1)*n+i])
		}
		edge /= float64(2 * n)
		// Quadrant asymmetries.
		var q00, q11 float64
		for y := 0; y < c; y++ {
			for x := 0; x < c; x++ {
				q00 += float64(f[y*n+x])
				q11 += float64(f[(y+c)*n+(x+c)])
			}
		}
		qn := float64(c * c)
		out = append(out, mean, variance, center, center-edge, q00/qn-mean, q11/qn-mean)
	}
	return out
}

func forward(w [][]float64, b []float64, in []float64, tanh bool) []float64 {
	out := make([]float64, len(w))
	for i := range w {
		s := b[i]
		for j, v := range in {
			s += w[i][j] * v
		}
		if tanh {
			s = math.Tanh(s)
		}
		out[i] = s
	}
	return out
}
