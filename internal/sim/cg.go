package sim

import (
	"fmt"
	"math"
	"math/rand"

	"mummi/internal/units"
)

// RDFBins is the number of radial bins in each protein-lipid RDF histogram.
const RDFBins = 20

// CGFrame is what the on-node CG analysis extracts from each trajectory
// snapshot (§4.1(3)): protein-lipid RDFs for the CG→continuum feedback, and
// the 3-D conformational coordinates (tilt, rotation, depth) that encode
// RAS-RAF state for AA frame selection.
type CGFrame struct {
	SimID string
	Index int
	// TimeFs is the frame's position in the trajectory.
	TimeFs int64
	// State is the protein configuration (continuum state id).
	State int
	// RDF[species][bin] is the protein-lipid radial distribution function.
	RDF [][]float32
	// Tilt, Rotation, Depth are the conformational coordinates.
	Tilt     float64
	Rotation float64
	Depth    float64
}

// ID returns the frame's campaign-unique key.
func (f *CGFrame) ID() string { return fmt.Sprintf("%s_f%06d", f.SimID, f.Index) }

// CGSim generates the analysis stream of one coarse-grained simulation:
// every frame advances the RAS-RAF conformational coordinates by a bounded
// random walk and re-samples RDFs around a per-simulation lipid fingerprint,
// seeded so a restarted campaign replays identically.
type CGSim struct {
	id       string
	species  int
	state    int
	rng      *rand.Rand
	tilt     float64
	rotation float64
	depth    float64
	// fingerprint shapes this simulation's RDFs: the lipid environment the
	// patch was cut from.
	fingerprint []float64
	frame       int
	simTime     units.SimTime
	// FrameInterval is the simulated time between analyzed frames: ddcMD's
	// 4.6 MB/41.5 s cadence at 1.04 µs/day is ~0.5 ns of trajectory per
	// frame.
	FrameInterval units.SimTime
}

// NewCGSim creates the generator. species is the lipid species count
// (couplings fed back to the continuum must match it); state routes the
// feedback aggregation; fingerprint (length species, may be nil) biases the
// RDFs like the source patch's lipid environment would.
func NewCGSim(id string, species, state int, fingerprint []float64, seed int64) *CGSim {
	rng := rand.New(rand.NewSource(seed))
	fp := make([]float64, species)
	for i := range fp {
		if i < len(fingerprint) {
			fp[i] = fingerprint[i]
		} else {
			fp[i] = 0.5
		}
	}
	return &CGSim{
		id: id, species: species, state: state, rng: rng,
		tilt:          rng.Float64() * 180,
		rotation:      rng.Float64() * 360,
		depth:         rng.NormFloat64(),
		fingerprint:   fp,
		FrameInterval: 500 * units.Picosecond,
	}
}

// SimTime returns the trajectory length produced so far.
func (s *CGSim) SimTime() units.SimTime { return s.simTime }

// Frames returns the number of frames produced so far.
func (s *CGSim) Frames() int { return s.frame }

// NextFrame advances the simulation by one analysis interval and returns
// the analyzed frame.
func (s *CGSim) NextFrame() *CGFrame {
	s.simTime += s.FrameInterval
	// Conformational random walk with reflection at physical bounds.
	s.tilt = reflect(s.tilt+s.rng.NormFloat64()*4, 0, 180)
	s.rotation = wrap360(s.rotation + s.rng.NormFloat64()*8)
	s.depth = reflect(s.depth+s.rng.NormFloat64()*0.2, -5, 5)

	f := &CGFrame{
		SimID:    s.id,
		Index:    s.frame,
		TimeFs:   s.simTime.Femtoseconds(),
		State:    s.state,
		Tilt:     s.tilt,
		Rotation: s.rotation,
		Depth:    s.depth,
		RDF:      make([][]float32, s.species),
	}
	for sp := 0; sp < s.species; sp++ {
		rdf := make([]float32, RDFBins)
		amp := s.fingerprint[sp]
		for b := 0; b < RDFBins; b++ {
			r := (float64(b) + 0.5) / RDFBins
			// A first-solvation-shell peak whose height tracks the lipid
			// fingerprint, decaying to bulk density 1.
			v := 1 + amp*gauss(r, 0.25, 0.08) + 0.05*s.rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			rdf[b] = float32(v)
		}
		f.RDF[sp] = rdf
	}
	s.frame++
	return f
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

func reflect(v, lo, hi float64) float64 {
	for v < lo || v > hi {
		if v < lo {
			v = 2*lo - v
		}
		if v > hi {
			v = 2*hi - v
		}
	}
	return v
}

func wrap360(v float64) float64 {
	for v < 0 {
		v += 360
	}
	for v >= 360 {
		v -= 360
	}
	return v
}
