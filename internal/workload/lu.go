package workload

import (
	"time"

	"ktau/internal/mpisim"
)

// Message tags used by the LU exchange pattern.
const (
	tagFace  = 1
	tagLower = 2
	tagUpper = 3
)

// LUConfig parameterises the NPB LU analogue: an SSOR iteration on a 2-D
// process grid with face exchanges (rhs), a lower-triangular pipelined
// wavefront sweep (jacld/blts) and an upper-triangular reverse sweep
// (jacu/buts). Costs are scaled down from the paper's class C so a full
// 128-rank run takes seconds of virtual time instead of minutes; the
// compute/communication structure — which is what drives every figure — is
// preserved.
type LUConfig struct {
	Grid  Grid
	Iters int
	// RhsCompute is the per-iteration rhs cost; StageCompute the per-
	// wavefront-stage solve cost (split across jacld/blts or jacu/buts).
	RhsCompute   time.Duration
	StageCompute time.Duration
	// WavefrontSteps is the pipeline depth of each triangular sweep.
	WavefrontSteps int
	// StageBytes is the per-neighbour message size in the sweeps; FaceBytes
	// the per-neighbour face exchange size in rhs.
	StageBytes int
	FaceBytes  int
	// NormEvery inserts an Allreduce every k iterations (0 disables).
	NormEvery int
	// ComputeJitter is the ± fraction of per-burst compute noise.
	ComputeJitter float64
}

// DefaultLUConfig returns the scaled class-C-like configuration for the
// given number of ranks.
func DefaultLUConfig(ranks int) LUConfig {
	return LUConfig{
		Grid:           MakeGrid(ranks),
		Iters:          12,
		RhsCompute:     100 * time.Millisecond,
		StageCompute:   500 * time.Microsecond,
		WavefrontSteps: 32,
		StageBytes:     6 * 1024,
		FaceBytes:      32 * 1024,
		NormEvery:      5,
		ComputeJitter:  0.03,
	}
}

// LU returns the rank body implementing the workload. Use with
// World.Launch("lu", workload.LU(cfg)).
func LU(cfg LUConfig) func(*mpisim.Rank) {
	if cfg.Grid.Size() == 0 {
		panic("workload: LUConfig needs a grid")
	}
	return func(r *mpisim.Rank) {
		g := cfg.Grid
		if g.Size() != r.Size() {
			panic("workload: LU grid does not match world size")
		}
		north, south, west, east := g.Neighbors(r.ID())
		rng := r.U().RNG().Stream("lu-jitter")
		burn := func(name string, d time.Duration) {
			r.Compute(name, time.Duration(rng.Jitter(int64(d), cfg.ComputeJitter)))
		}

		r.Barrier() // job start line-up, as mpirun provides
		for it := 0; it < cfg.Iters; it++ {
			// rhs: face exchange with all neighbours, then local compute.
			for _, nb := range []int{north, south, west, east} {
				if nb >= 0 {
					r.Send(nb, cfg.FaceBytes, tagFace)
				}
			}
			for _, nb := range []int{north, south, west, east} {
				if nb >= 0 {
					r.Recv(nb, tagFace)
				}
			}
			burn("rhs", cfg.RhsCompute)

			// Lower-triangular sweep: wavefront from the north-west corner.
			for step := 0; step < cfg.WavefrontSteps; step++ {
				if north >= 0 {
					r.Recv(north, tagLower)
				}
				if west >= 0 {
					r.Recv(west, tagLower)
				}
				burn("jacld", cfg.StageCompute*45/100)
				burn("blts", cfg.StageCompute*55/100)
				if south >= 0 {
					r.Send(south, cfg.StageBytes, tagLower)
				}
				if east >= 0 {
					r.Send(east, cfg.StageBytes, tagLower)
				}
			}

			// Upper-triangular sweep: reverse wavefront from the south-east.
			for step := 0; step < cfg.WavefrontSteps; step++ {
				if south >= 0 {
					r.Recv(south, tagUpper)
				}
				if east >= 0 {
					r.Recv(east, tagUpper)
				}
				burn("jacu", cfg.StageCompute*45/100)
				burn("buts", cfg.StageCompute*55/100)
				if north >= 0 {
					r.Send(north, cfg.StageBytes, tagUpper)
				}
				if west >= 0 {
					r.Send(west, cfg.StageBytes, tagUpper)
				}
			}

			if cfg.NormEvery > 0 && (it+1)%cfg.NormEvery == 0 {
				r.Allreduce(40)
			}
		}
		r.Allreduce(40) // final residual norm
	}
}
