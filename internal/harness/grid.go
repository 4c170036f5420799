package harness

import (
	"fmt"
	"strconv"
	"strings"
)

// TraceAxis is one value of the trace-mode axis: a pipeline mode plus its
// sampling rate ("full", "off", "adaptive:0.25").
type TraceAxis struct {
	Mode string  // "off", "full", "adaptive"
	Rate float64 // adaptive base rate (0 = spec default)
}

func (t TraceAxis) String() string {
	if t.Mode == "adaptive" && t.Rate > 0 {
		return fmt.Sprintf("adaptive:%g", t.Rate)
	}
	return t.Mode
}

// ParseTraceAxis parses "off", "full", "adaptive" or "adaptive:<rate>".
func ParseTraceAxis(s string) (TraceAxis, error) {
	mode, rateStr, hasRate := strings.Cut(strings.TrimSpace(s), ":")
	switch mode {
	case "off", "full", "adaptive":
	default:
		return TraceAxis{}, fmt.Errorf("unknown trace mode %q (off|full|adaptive[:rate])", s)
	}
	ax := TraceAxis{Mode: mode}
	if hasRate {
		if mode != "adaptive" {
			return TraceAxis{}, fmt.Errorf("trace mode %q does not take a rate", mode)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate <= 0 || rate > 1 {
			return TraceAxis{}, fmt.Errorf("bad adaptive rate %q (want 0 < rate <= 1)", rateStr)
		}
		ax.Rate = rate
	}
	return ax, nil
}

// Grid is a parameter grid over one experiment spec. Empty axes default to
// a single zero-ish value so a grid only names the dimensions it sweeps.
type Grid struct {
	// Name labels the grid; baselines live at testdata/sweeps/<Name>.json.
	Name string
	// Exp is the registered spec every cell runs.
	Exp string
	// Ranks axis (default {8}).
	Ranks []int
	// Racks axis: 0/1 = flat network, N > 1 = N racks with a higher
	// cross-rack latency, which partitions the runner (default {0}).
	Racks []int
	// Workers axis: 0 = serial, N > 0 = parallel with N workers (default {0}).
	Workers []int
	// Faults axis: "none", "degraded", "crash" (default {"none"}).
	Faults []string
	// Trace axis (default {off}).
	Trace []TraceAxis
	// Seeds axis (default {1}).
	Seeds []uint64
}

// Cells expands the grid in deterministic nested-axis order
// (ranks → racks → workers → faults → trace → seeds).
func (g Grid) Cells() []Params {
	ranks := g.Ranks
	if len(ranks) == 0 {
		ranks = []int{8}
	}
	racks := g.Racks
	if len(racks) == 0 {
		racks = []int{0}
	}
	workers := g.Workers
	if len(workers) == 0 {
		workers = []int{0}
	}
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{"none"}
	}
	trace := g.Trace
	if len(trace) == 0 {
		trace = []TraceAxis{{Mode: "off"}}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var cells []Params
	for _, r := range ranks {
		for _, rk := range racks {
			for _, w := range workers {
				for _, f := range faults {
					for _, t := range trace {
						for _, s := range seeds {
							cells = append(cells, Params{
								Exp:      g.Exp,
								Ranks:    r,
								Racks:    rk,
								Parallel: w > 0,
								Workers:  w,
								Faults:   f,
								Trace:    t.Mode,
								Rate:     t.Rate,
								Seed:     s,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// NamedGrids returns the committed grids, keyed by name. "smoke" is the
// check.sh gate: 8 ranks × {serial, parallel} × {no faults, DegradedPlan} ×
// {full, adaptive trace}, one seed — 8 cells, every one fingerprinted
// against testdata/sweeps/smoke.json. The serial and parallel variants of a
// configuration must carry identical fingerprints (the repo's determinism
// invariant), so the baseline double-checks it on every run.
func NamedGrids() map[string]Grid {
	return map[string]Grid{
		"smoke": {
			Name:    "smoke",
			Exp:     "chiba",
			Ranks:   []int{8},
			Workers: []int{0, 4},
			Faults:  []string{"none", "degraded"},
			Trace:   []TraceAxis{{Mode: "full"}, {Mode: "adaptive", Rate: 0.25}},
			Seeds:   []uint64{42},
		},
		// perturb is the trace-pipeline perturbation study at 16 ranks: the
		// same LU job with collection off, profiling, full tracing, fixed
		// sampling and adaptive tracing. gridBudgets holds its slowdowns to
		// the overhead budgets.
		"perturb": {
			Name:  "perturb",
			Exp:   "traceov",
			Ranks: []int{16},
			Seeds: []uint64{1},
		},
		// serve16 is one serial 16-node serving run at seed 7; gridBudgets
		// bounds its tenant tails and throughput and requires a drained run,
		// no leaked connections and the rogue daemon fingered.
		"serve16": {
			Name:  "serve16",
			Exp:   "serve",
			Ranks: []int{16},
			Seeds: []uint64{7},
		},
		// faultgrid runs the full three-plan fault study per seed.
		"faultgrid": {
			Name:  "faultgrid",
			Exp:   "faults",
			Ranks: []int{8},
			Seeds: []uint64{1, 2},
		},
		// parscale is the partitioned-runner scaling grid: a racked cluster
		// (4 racks of 2 nodes, so the runner splits into 4 groups) swept
		// across worker counts. Every cell of one configuration must carry
		// identical fingerprints regardless of worker count — the
		// byte-identity invariant with the partitioned lookahead active.
		"parscale": {
			Name:    "parscale",
			Exp:     "chiba",
			Ranks:   []int{8},
			Racks:   []int{4},
			Workers: []int{0, 2, 3, 8},
			Faults:  []string{"degraded"},
			Trace:   []TraceAxis{{Mode: "adaptive", Rate: 0.25}},
			Seeds:   []uint64{42},
		},
		// servegrid sweeps the serving workload across fault plans and
		// execution modes.
		"servegrid": {
			Name:    "servegrid",
			Exp:     "serve",
			Ranks:   []int{8},
			Workers: []int{0, 4},
			Faults:  []string{"none", "degraded"},
			Seeds:   []uint64{42},
		},
	}
}

// ParseIntAxis parses "8,16,32".
func ParseIntAxis(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in axis %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSeedAxis parses "1,42,1000".
func ParseSeedAxis(s string) ([]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in axis %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFaultAxis parses "none,degraded,crash".
func ParseFaultAxis(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		f := strings.TrimSpace(part)
		switch f {
		case "none", "degraded", "crash":
			out = append(out, f)
		default:
			return nil, fmt.Errorf("unknown fault plan %q (none|degraded|crash)", f)
		}
	}
	return out, nil
}

// ParseTraceAxisList parses "off,full,adaptive:0.25".
func ParseTraceAxisList(s string) ([]TraceAxis, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []TraceAxis
	for _, part := range strings.Split(s, ",") {
		ax, err := ParseTraceAxis(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ax)
	}
	return out, nil
}
