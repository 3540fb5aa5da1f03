// Package sim provides the simulation-scale surrogates of the three-scale
// campaign (§4.1): coarse-grained (ddcMD-like) and all-atom (AMBER-like)
// simulation generators that emit analyzable frames at the paper's rates
// and sizes, the CPU-only setup jobs (createsim, backmapping) with their
// published durations, and the per-scale performance models behind Fig. 4.
//
// No molecular dynamics is computed — the workflow never looks at forces,
// only at frames, rates, and bytes (see DESIGN.md substitutions). What the
// frames carry is nonetheless real data: RDF histograms and conformational
// coordinates evolve by seeded stochastic processes so that selection and
// feedback downstream operate on meaningful, reproducible inputs.
package sim

import (
	"math"
	"math/rand"
	"time"

	"mummi/internal/units"
)

// Published campaign constants (§4.1, §5.1).
const (
	// CGParticlesMean is the average CG system size (~140k particles;
	// Fig. 4 spans roughly 134k–138k).
	CGParticlesMean = 136000
	// CGParticlesSpread is the ± range of CG system sizes.
	CGParticlesSpread = 2000
	// AAAtomsMean is the average AA system size (1.575 M atoms).
	AAAtomsMean = 1575000
	// AAAtomsSpread is the ± range of AA system sizes.
	AAAtomsSpread = 10000
	// CGMaxLength is the campaign's CG simulation cap (5 µs).
	CGMaxLength = 5 * units.Microsecond
	// AAMinLength and AAMaxLength bound AA simulations (50–65 ns).
	AAMinLength = 50 * units.Nanosecond
	AAMaxLength = 65 * units.Nanosecond
)

// Wall-clock cadences and data volumes (§4.1).
var (
	// CGFrameBytes is the trajectory data per CG frame (ddcMD produces it
	// every ~41.5 s).
	CGFrameBytes = units.ByteSize(4_600_000)
	// CGAnalysisBytes is the per-frame analysis output (~17 KB).
	CGAnalysisBytes = units.ByteSize(17_000)
	// CGFrameIdentBytes is the identifying info the distributed analysis
	// emits per interesting frame (~850 B).
	CGFrameIdentBytes = units.ByteSize(850)
	// AAFrameBytes is the trajectory data per AA frame (one every ~10.3 min
	// at 0.1 ns framing).
	AAFrameBytes = units.ByteSize(18_000_000)
	// CreatesimDuration is the average continuum→CG setup time (~1.5 h).
	CreatesimDuration = 90 * time.Minute
	// CreatesimCores is the setup job's CPU allocation.
	CreatesimCores = 24
	// BackmapDuration is the average CG→AA backmapping time (~2 h).
	BackmapDuration = 2 * time.Hour
	// BackmapCores is backmapping's CPU allocation (bumped to 24 in the
	// Summit placement so all setup jobs share one shape; the tool itself
	// uses 18).
	BackmapCores = 24
)

// ContinuumPerf models GridSim2D throughput as a function of allocated CPU
// cores: 3600 MPI ranks deliver ~0.96 ms/day (§4.1(1)); smaller allocations
// scale near-linearly, producing the multi-modal Fig. 4 distribution (one
// mode per allocation size).
func ContinuumPerf(cores int) units.Rate {
	msPerDay := 0.96 * float64(cores) / 3600.0
	return units.PerDay(msPerDay, units.Millisecond)
}

// CGPerf samples one CG simulation's delivered performance (µs/day/GPU).
// The distribution is tight around the benchmark with a slow tail (Fig. 4:
// "tight distributions around mean, although the slowest runs showed
// significant slow down"), scaled by system size, and reduced 20% during
// the campaign's miscompiled-MPI era (§5.1).
type CGPerf struct {
	// MPIBugEra applies the ~20% slowdown observed for the first ~third of
	// the campaign.
	MPIBugEra bool
}

// Sample draws one simulation's rate for a given particle count.
func (p CGPerf) Sample(rng *rand.Rand, particles int) units.Rate {
	base := 1.04 * float64(CGParticlesMean) / float64(particles)
	rate := base * slowTailFactor(rng, 0.02, 0.05, 0.35)
	if p.MPIBugEra {
		rate *= 0.8
	}
	return units.PerDay(rate, units.Microsecond)
}

// AAPerf samples one AA simulation's delivered performance (ns/day/GPU),
// matching the AMBER benchmark measured outside MuMMI (§5.1).
type AAPerf struct{}

// Sample draws one simulation's rate for a given atom count.
func (AAPerf) Sample(rng *rand.Rand, atoms int) units.Rate {
	base := 13.98 * float64(AAAtomsMean) / float64(atoms)
	return units.PerDay(base*slowTailFactor(rng, 0.015, 0.03, 0.25), units.Nanosecond)
}

// slowTailFactor returns a multiplicative performance factor: Gaussian
// around 1 with std `std`, and with probability pSlow a slowdown drawn
// uniformly up to maxSlow — the long left tail of Fig. 4 ("the slowest runs
// showed significant slow down", a known HPC variability effect).
func slowTailFactor(rng *rand.Rand, std, pSlow, maxSlow float64) float64 {
	f := 1 + rng.NormFloat64()*std
	if rng.Float64() < pSlow {
		f *= 1 - rng.Float64()*maxSlow
	}
	return clamp(f, 0.5, 1.1)
}

// SetupDuration samples a CPU-setup job duration around mean with lognormal
// spread (createsim "on average takes ~1.5 hours"; backmapping "~2 hours on
// average").
func SetupDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	f := math.Exp(rng.NormFloat64() * 0.18)
	return time.Duration(float64(mean) * clamp(f, 0.5, 2.5))
}

// CGParticles samples a CG system size.
func CGParticles(rng *rand.Rand) int {
	return CGParticlesMean + int(rng.NormFloat64()*CGParticlesSpread/2)
}

// AAAtoms samples an AA system size.
func AAAtoms(rng *rand.Rand) int {
	return AAAtomsMean + int(rng.NormFloat64()*AAAtomsSpread/2)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
