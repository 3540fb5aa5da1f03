// Package continuum is mummi-go's stand-in for GridSim2D, the paper's
// macro-scale model (§4.1(1)): a dynamic-density-functional-theory (DDFT)
// description of a 1 µm × 1 µm lipid bilayer discretized on a 2400×2400
// grid, with 8 lipid species in the inner leaflet and 6 in the outer, and
// RAS/RAF proteins represented as interacting particles.
//
// The surrogate evolves real density fields (diffusion plus protein-coupled
// aggregation terms, a simplified DDFT) and random-walking protein
// particles, so that downstream components — the patch creator, the ML
// encoder, and the CG-to-continuum feedback that updates protein-lipid
// coupling parameters on the fly — all operate on genuine data. Wall-clock
// performance (0.96 ms/day on 3600 ranks) and snapshot sizing (~374 MB per
// 1 µs snapshot) are modeled in the campaign driver; the grid here defaults
// to a laptop-scale resolution and accepts the full 2400² when asked.
package continuum

import (
	"fmt"
	"math"
	"math/rand"

	"mummi/internal/parallel"
	"mummi/internal/units"
)

// Config sizes the model. The zero value is unusable; call DefaultConfig.
type Config struct {
	// GridN is the grid resolution per side (paper: 2400).
	GridN int `json:"grid_n"`
	// Domain is the physical side length (paper: 1 µm).
	Domain units.Length `json:"domain_nm"`
	// InnerLipids and OuterLipids count lipid species per leaflet
	// (paper: 8 inner, 6 outer).
	InnerLipids int `json:"inner_lipids"`
	OuterLipids int `json:"outer_lipids"`
	// Proteins is the number of RAS/RAF particles on the membrane.
	Proteins int `json:"proteins"`
	// Seed makes the evolution deterministic.
	Seed int64 `json:"seed"`
}

// DefaultConfig returns a laptop-scale configuration that preserves the
// paper's structure (14 lipid species, protein particles) at 1/20 the grid
// resolution.
func DefaultConfig() Config {
	return Config{GridN: 120, Domain: 1 * units.Um, InnerLipids: 8, OuterLipids: 6,
		Proteins: 30, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.GridN < 8 || c.Domain <= 0 || c.InnerLipids < 1 || c.OuterLipids < 0 || c.Proteins < 0 {
		return fmt.Errorf("continuum: invalid config %+v", c)
	}
	return nil
}

// Species returns the total lipid species count.
func (c Config) Species() int { return c.InnerLipids + c.OuterLipids }

// NumProteinStates is the number of protein configurations the campaign
// distinguishes: RAS-only and two RAS-RAF states. A Protein's State and the
// rows of the feedback couplings are indexed by it.
const NumProteinStates = 3

// Protein is one particle on the membrane.
type Protein struct {
	ID    int     `json:"id"`
	X     float64 `json:"x_nm"` // position in nm, periodic domain
	Y     float64 `json:"y_nm"`
	State int     `json:"state"`
}

// Sim is the evolving continuum model.
type Sim struct {
	cfg      Config
	rng      *rand.Rand
	time     units.SimTime
	fields   [][]float32 // [species][GridN*GridN] densities
	proteins []Protein
	// couplings[state][species] scales how strongly a protein in a given
	// state attracts each lipid species. CG-to-continuum feedback updates
	// these from aggregated RDFs — "the ongoing continuum simulation reads
	// and updates these parameters on the fly".
	couplings    [][]float64
	paramVersion int
}

// New builds a simulation with smoothly varying initial lipid densities.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	n := cfg.GridN
	s.fields = make([][]float32, cfg.Species())
	for sp := range s.fields {
		f := make([]float32, n*n)
		// Smooth random field: a few low-frequency cosine modes per species.
		ax, ay := s.rng.Float64()*3+1, s.rng.Float64()*3+1
		px, py := s.rng.Float64()*2*math.Pi, s.rng.Float64()*2*math.Pi
		base := 0.5 + 0.5*s.rng.Float64()
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := base +
					0.25*math.Cos(ax*2*math.Pi*float64(x)/float64(n)+px)*
						math.Cos(ay*2*math.Pi*float64(y)/float64(n)+py)
				f[y*n+x] = float32(v)
			}
		}
		s.fields[sp] = f
	}
	s.proteins = make([]Protein, cfg.Proteins)
	for i := range s.proteins {
		s.proteins[i] = Protein{
			ID:    i,
			X:     s.rng.Float64() * s.cfg.Domain.Nanometers(),
			Y:     s.rng.Float64() * s.cfg.Domain.Nanometers(),
			State: s.rng.Intn(NumProteinStates),
		}
	}
	s.couplings = make([][]float64, NumProteinStates)
	for st := range s.couplings {
		s.couplings[st] = make([]float64, cfg.Species())
		for sp := range s.couplings[st] {
			s.couplings[st][sp] = 0.1 // neutral prior until feedback arrives
		}
	}
	return s, nil
}

// Time returns the accumulated simulated time.
func (s *Sim) Time() units.SimTime { return s.time }

// ParamVersion returns how many feedback parameter updates have been applied.
func (s *Sim) ParamVersion() int { return s.paramVersion }

// UpdateCouplings applies a CG-to-continuum feedback result: per-state,
// per-species protein-lipid coupling strengths derived from aggregated RDFs.
func (s *Sim) UpdateCouplings(c [][]float64) error {
	if len(c) != NumProteinStates {
		return fmt.Errorf("continuum: want %d states, got %d", NumProteinStates, len(c))
	}
	for st := range c {
		if len(c[st]) != s.cfg.Species() {
			return fmt.Errorf("continuum: state %d wants %d species, got %d",
				st, s.cfg.Species(), len(c[st]))
		}
	}
	for st := range c {
		copy(s.couplings[st], c[st])
	}
	s.paramVersion++
	return nil
}

// Step advances the model by dt of simulated time, split into explicit
// diffusion sub-steps sized for stability.
func (s *Sim) Step(dt units.SimTime) {
	// One sub-step per 100 ns of model time keeps the explicit scheme tame
	// while bounding CPU cost for the surrogate.
	sub := int(dt / (100 * units.Nanosecond))
	if sub < 1 {
		sub = 1
	}
	for i := 0; i < sub; i++ {
		s.diffuse()
		s.moveProteins(float64(dt) / float64(sub) / float64(units.Microsecond))
	}
	s.time += dt
}

// diffuse applies one explicit 5-point diffusion step plus protein-coupled
// accretion to every species field. GridSim2D decomposes its grid over MPI
// ranks (§4.1(1)); here the rows split into contiguous stripes over
// parallel.For. Each stripe writes only its own rows of next and reads the
// current field, halo rows included, so every worker count gives the same
// field; the return of parallel.For is the barrier a halo exchange implies.
func (s *Sim) diffuse() {
	n := s.cfg.GridN
	const kappa = 0.2 // diffusion number, stable for the 5-point stencil
	for sp, f := range s.fields {
		next := make([]float32, len(f))
		parallel.For(n, parallel.Workers(0), 1, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				ym, yp := (y-1+n)%n, (y+1)%n
				for x := 0; x < n; x++ {
					xm, xp := (x-1+n)%n, (x+1)%n
					lap := f[y*n+xm] + f[y*n+xp] + f[ym*n+x] + f[yp*n+x] - 4*f[y*n+x]
					next[y*n+x] = f[y*n+x] + kappa*lap
				}
			}
		})
		s.fields[sp] = next
		// Protein-coupled accretion: proteins pull lipids they couple to
		// toward their grid cell, creating the "lipid fingerprints" the
		// patch encoder later distinguishes.
		cell := s.cfg.Domain.Nanometers() / float64(n)
		for _, p := range s.proteins {
			g := s.couplings[p.State][sp]
			if g == 0 {
				continue
			}
			x, y := int(p.X/cell)%n, int(p.Y/cell)%n
			s.fields[sp][y*n+x] += float32(g * 0.01)
		}
	}
}

// moveProteins random-walks the particles; dtUs is the sub-step in µs.
func (s *Sim) moveProteins(dtUs float64) {
	// Lateral protein diffusion ~1 µm²/s = 1e-6 µm²/µs; in nm: step std
	// sqrt(2 D dt) with D = 1e3 nm²/µs keeps motion visible at patch scale.
	std := math.Sqrt(2 * 1e3 * dtUs)
	dom := s.cfg.Domain.Nanometers()
	for i := range s.proteins {
		p := &s.proteins[i]
		p.X = wrap(p.X+s.rng.NormFloat64()*std, dom)
		p.Y = wrap(p.Y+s.rng.NormFloat64()*std, dom)
		// Rare conformational state changes (RAS ↔ RAS-RAF association).
		if s.rng.Float64() < 0.001 {
			p.State = s.rng.Intn(NumProteinStates)
		}
	}
}

func wrap(v, dom float64) float64 {
	v = math.Mod(v, dom)
	if v < 0 {
		v += dom
	}
	return v
}

// Snapshot captures the full model state at the current time.
func (s *Sim) Snapshot() *Snapshot {
	snap := &Snapshot{
		Time:    s.time,
		GridN:   s.cfg.GridN,
		Domain:  s.cfg.Domain,
		Fields:  make([][]float32, len(s.fields)),
		Protein: append([]Protein(nil), s.proteins...),
	}
	for i, f := range s.fields {
		snap.Fields[i] = append([]float32(nil), f...)
	}
	return snap
}
