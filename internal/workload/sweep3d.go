package workload

import (
	"time"

	"ktau/internal/mpisim"
)

const tagSweepBase = 10

// SweepConfig parameterises the ASCI Sweep3D analogue: per iteration, eight
// octant wavefront sweeps over a 2-D process grid (two sweeps from each
// corner), each a pipelined recv-compute-send chain. Sweep3D is more
// compute-bound than LU and exchanges smaller per-stage messages, which is
// why the paper's 64x2 penalty is smaller for it (15.9% vs 36.1%).
type SweepConfig struct {
	Grid  Grid
	Iters int
	// WavefrontSteps is the k-block pipeline depth per octant sweep.
	WavefrontSteps int
	// StageCompute is the per-stage solve cost inside sweep().
	StageCompute time.Duration
	// StageBytes is the per-neighbour boundary exchange per stage.
	StageBytes int
	// FixupCompute is a per-iteration flux fixup done outside sweep().
	FixupCompute time.Duration
	// ComputeJitter is the ± fraction of per-burst compute noise.
	ComputeJitter float64
}

// DefaultSweepConfig returns the scaled configuration for the given ranks.
func DefaultSweepConfig(ranks int) SweepConfig {
	return SweepConfig{
		Grid:           MakeGrid(ranks),
		Iters:          8,
		WavefrontSteps: 24,
		StageCompute:   1100 * time.Microsecond,
		StageBytes:     3 * 1024,
		FixupCompute:   30 * time.Millisecond,
		ComputeJitter:  0.03,
	}
}

// octant directions: (dx, dy) of the wavefront propagation; each appears
// twice per iteration (two z-directions of the real 3-D sweep).
var octantDirs = [4][2]int{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}}

// Sweep3D returns the rank body implementing the workload. The compute
// phase inside sweep() is TAU-instrumented as "sweep_compute", which is the
// user context Fig. 9 counts kernel TCP calls against.
func Sweep3D(cfg SweepConfig) func(*mpisim.Rank) {
	if cfg.Grid.Size() == 0 {
		panic("workload: SweepConfig needs a grid")
	}
	return func(r *mpisim.Rank) {
		g := cfg.Grid
		if g.Size() != r.Size() {
			panic("workload: Sweep3D grid does not match world size")
		}
		x, y := g.Coords(r.ID())
		rng := r.U().RNG().Stream("sweep-jitter")
		jit := func(d time.Duration) time.Duration {
			return time.Duration(rng.Jitter(int64(d), cfg.ComputeJitter))
		}

		r.Barrier()
		for it := 0; it < cfg.Iters; it++ {
			for oct := 0; oct < 8; oct++ {
				dir := octantDirs[oct%4]
				tag := tagSweepBase + oct
				// Upstream neighbours (where the wavefront comes from) and
				// downstream neighbours (where it goes).
				upX := g.RankAt(x-dir[0], y)
				upY := g.RankAt(x, y-dir[1])
				dnX := g.RankAt(x+dir[0], y)
				dnY := g.RankAt(x, y+dir[1])

				r.Tau.Start("sweep()")
				for step := 0; step < cfg.WavefrontSteps; step++ {
					if upX >= 0 {
						r.Recv(upX, tag)
					}
					if upY >= 0 {
						r.Recv(upY, tag)
					}
					r.Tau.Start("sweep_compute")
					r.U().Compute(jit(cfg.StageCompute))
					r.Tau.Stop("sweep_compute")
					if dnX >= 0 {
						r.Send(dnX, cfg.StageBytes, tag)
					}
					if dnY >= 0 {
						r.Send(dnY, cfg.StageBytes, tag)
					}
				}
				r.Tau.Stop("sweep()")
			}
			r.Compute("flux_fixup", jit(cfg.FixupCompute))
			r.Allreduce(24)
		}
	}
}
