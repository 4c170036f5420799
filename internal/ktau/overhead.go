package ktau

import "ktau/internal/sim"

// OverheadModel describes the direct cost, in CPU cycles, of a single
// measurement operation. The defaults reproduce Table 4 of the paper, which
// reports the start/stop costs measured on the Chiba-City Pentium III nodes.
// When instrumentation is enabled, every entry/exit pair injects a sampled
// start and stop cost into the simulation's virtual time, which is what makes
// the perturbation study (Table 3) reproducible.
type OverheadModel struct {
	// StartMeanCycles etc. parameterise the cost of an entry (start)
	// operation; the distribution is a log-normal moment-matched to
	// mean/stddev and truncated below at min, matching the strictly positive
	// right-skewed shape of measured instrumentation costs.
	StartMeanCycles float64
	StartStdCycles  float64
	StartMinCycles  float64

	StopMeanCycles float64
	StopStdCycles  float64
	StopMinCycles  float64

	// ProbeCycles is the cost of reaching a compiled-in instrumentation
	// point that is disabled by boot-time or runtime control: a flag load,
	// test, and branch. The paper's "Ktau Off" configuration shows this to be
	// statistically invisible.
	ProbeCycles int64

	// AtomicCycles is the cost of recording one atomic event.
	AtomicCycles int64

	rng *sim.RNG
	// start and stop hold the log-normal parameters of the last start and
	// stop distributions drawn from.
	start, stop logNormal
}

// logNormal caches sim.LogNormalParams for one (mean, std) pair, so a draw
// skips the two logs and the square root that derive them. The key is the
// pair itself, so a caller that changes the exported fields gets fresh
// parameters on its next draw.
type logNormal struct {
	mean, std float64
	mu, sigma float64
}

func (p *logNormal) draw(rng *sim.RNG, mean, std float64) float64 {
	if mean != p.mean || std != p.std {
		p.mean, p.std = mean, std
		p.mu, p.sigma = sim.LogNormalParams(mean, std)
	}
	return rng.LogNormalDraw(p.mu, p.sigma)
}

// DefaultOverheadModel returns the model calibrated to Table 4 of the paper.
func DefaultOverheadModel(rng *sim.RNG) *OverheadModel {
	return &OverheadModel{
		StartMeanCycles: 244.4,
		StartStdCycles:  236.3,
		StartMinCycles:  160,
		StopMeanCycles:  295.3,
		StopStdCycles:   268.8,
		StopMinCycles:   214,
		ProbeCycles:     6,
		AtomicCycles:    180,
		rng:             rng,
	}
}

// ZeroOverheadModel returns a model with no cost at all; it represents the
// "Base" configuration of the perturbation study — a vanilla kernel with no
// KTAU patch compiled in.
func ZeroOverheadModel() *OverheadModel {
	return &OverheadModel{}
}

// SampleStart draws the cost of one entry operation.
func (m *OverheadModel) SampleStart() int64 {
	return m.sample(&m.start, m.StartMeanCycles, m.StartStdCycles, m.StartMinCycles)
}

// SampleStop draws the cost of one exit operation.
func (m *OverheadModel) SampleStop() int64 {
	return m.sample(&m.stop, m.StopMeanCycles, m.StopStdCycles, m.StopMinCycles)
}

func (m *OverheadModel) sample(p *logNormal, mean, std, min float64) int64 {
	if mean <= 0 {
		return 0
	}
	if m.rng == nil || std <= 0 {
		return int64(mean)
	}
	v := p.draw(m.rng, mean, std)
	if v < min {
		v = min
	}
	return int64(v)
}
