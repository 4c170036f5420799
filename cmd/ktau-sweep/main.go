// Command ktau-sweep is the hypothesis-driven experiment driver: it expands
// a parameter grid into cells, runs them concurrently on a bounded worker
// pool with a mandatory per-cell wall-clock timeout, writes one structured
// JSON result per cell, and diffs the sweep against a committed baseline so
// behavioural or fingerprint regressions fail CI loudly. The perturb and
// serve16 grids also hold every cell to absolute overhead, tail-latency and
// throughput budgets, which -update-baselines refuses to record past.
//
//	ktau-sweep -list                          # named grids and specs
//	ktau-sweep -grid smoke                    # run the check.sh smoke grid
//	ktau-sweep -grid smoke -gate              # ...and gate against testdata/sweeps/smoke.json
//	ktau-sweep -grid smoke -update-baselines  # re-record the baseline
//	ktau-sweep -exp chiba -ranks 8,16 -workers 0,4 -faults none,degraded \
//	           -trace full,adaptive:0.25 -seeds 1,2    # ad-hoc grid
//	ktau-sweep -bench-gate                    # strict-parse + threshold-gate BENCH_*.json
//	ktau-sweep -grid smoke -report out.html   # cross-layer sweep report (.md also supported)
//	ktau-sweep -grid smoke -record PR9        # append to testdata/longitudinal/smoke.jsonl
//	ktau-sweep -grid smoke -trend trend.md    # render the longitudinal trend, no sweep run
//
// Every cell is bounded: a hung simulation is recorded as a "timeout" cell
// and the sweep completes with a full per-cell report; a panicking cell is
// recorded as "panic". Exit status is 0 only when every cell is ok (and,
// with -gate, matches the baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ktau/internal/harness"
	"ktau/internal/views"
)

func main() {
	var (
		gridName  = flag.String("grid", "", "named grid to run (see -list)")
		exp       = flag.String("exp", "", "spec for an ad-hoc grid (chiba|faults|serve|trace|traceov)")
		ranks     = flag.String("ranks", "", "ranks axis, e.g. 8,16 (default 8)")
		racks     = flag.String("racks", "", "racks axis: 0 = flat network, N > 1 = N racks (partitions the runner; default 0)")
		workers   = flag.String("workers", "", "workers axis: 0 = serial, N = parallel with N workers (default 0)")
		faults    = flag.String("faults", "", "fault-plan axis: none,degraded,crash (default none)")
		trace     = flag.String("trace", "", "trace axis: off,full,adaptive[:rate] (default off)")
		seeds     = flag.String("seeds", "", "seed axis, e.g. 1,42 (default 1)")
		timeout   = flag.Duration("timeout", harness.DefaultCellTimeout, "mandatory per-cell wall-clock timeout")
		jobs      = flag.Int("j", 1, "concurrently running cells")
		outDir    = flag.String("out", "", "write one JSON file per cell (plus report.json) to this directory")
		gate      = flag.Bool("gate", false, "diff the sweep against the committed baseline; non-zero exit on mismatch")
		update    = flag.Bool("update-baselines", false, "write the sweep as the new committed baseline (refused when a cell breaks its grid's budgets)")
		baseline  = flag.String("baseline", "", "baseline path (default testdata/sweeps/<grid>.json)")
		wallTol   = flag.Float64("wall-tol", -1, "override baseline wall-clock tolerance factor (0 disables the wall gate)")
		benchGate = flag.Bool("bench-gate", false, "strict-parse and threshold-gate the BENCH_*.json files, then exit")
		benchDir  = flag.String("bench-dir", ".", "directory holding the BENCH_*.json files for -bench-gate")
		list      = flag.Bool("list", false, "list named grids and registered specs, then exit")
		asJSON    = flag.Bool("json", false, "print the full sweep report as JSON")
		report    = flag.String("report", "", "comma-separated report paths (.html or .md); baseline deltas included when the baseline loads")
		record    = flag.String("record", "", "append the sweep (plus BENCH_*.json snapshots) to the grid's longitudinal history under this label")
		longDir   = flag.String("longdir", filepath.Join("testdata", "longitudinal"), "directory holding per-grid longitudinal histories")
		trendOut  = flag.String("trend", "", "render the grid's longitudinal trend report to this path and exit (no sweep is run)")
	)
	flag.Parse()

	if *list {
		fmt.Println("named grids:")
		grids := harness.NamedGrids()
		names := make([]string, 0, len(grids))
		for name := range grids {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			g := grids[name]
			fmt.Printf("  %-10s %s, %d cells\n", name, g.Exp, len(g.Cells()))
		}
		fmt.Println("specs:")
		for _, s := range harness.Specs() {
			fmt.Println("  " + s)
		}
		return
	}

	if *benchGate {
		violations := harness.GateBenchFiles(*benchDir, os.Stdout)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "ktau-sweep: bench gate:", v)
			}
			os.Exit(1)
		}
		fmt.Println("bench gate: all green")
		return
	}

	grid, err := buildGrid(*gridName, *exp, *ranks, *racks, *workers, *faults, *trace, *seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
		os.Exit(2)
	}

	basePath := *baseline
	if basePath == "" {
		basePath = filepath.Join("testdata", "sweeps", grid.Name+".json")
	}

	if *trendOut != "" {
		entries, err := views.LoadTrend(views.TrendPath(*longDir, grid.Name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		if err := views.WriteFile(*trendOut, views.BuildTrend(grid.Name, entries)); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("trend report written: %s (%d entries)\n", *trendOut, len(entries))
		return
	}

	start := time.Now()
	fmt.Printf("sweep %s: %d cells, per-cell timeout %v, %d concurrent\n",
		grid.Name, len(grid.Cells()), *timeout, *jobs)
	res, err := harness.RunSweep(grid, harness.SweepConfig{
		Timeout: *timeout,
		Jobs:    *jobs,
		OutDir:  *outDir,
		Log:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep %s: %d cells in %v wall\n", grid.Name, len(res.Cells),
		time.Since(start).Round(time.Millisecond))

	if *asJSON {
		printJSON(res)
	}

	if *report != "" {
		// Best-effort baseline: deltas appear inline when the committed
		// baseline loads; a brand-new grid renders plain metrics instead.
		b, err := harness.LoadBaseline(basePath)
		if err != nil {
			b = nil
		}
		rep := views.BuildSweep(res, b)
		for _, path := range strings.Split(*report, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			if err := views.WriteFile(path, rep); err != nil {
				fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
				os.Exit(1)
			}
			fmt.Println("report written:", path)
		}
	}

	if *record != "" {
		entry := views.NewTrendEntry(*record, res)
		if err := entry.CollectBench(*benchDir); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		trendPath := views.TrendPath(*longDir, grid.Name)
		if err := views.AppendTrend(trendPath, entry); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("longitudinal: recorded %q in %s\n", *record, trendPath)
	}

	switch {
	case *update:
		b := harness.NewBaseline(res)
		if *wallTol >= 0 {
			b.WallTolX = *wallTol
		}
		if err := harness.SaveBaseline(basePath, b); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("baseline written: %s (%d cells)\n", basePath, len(b.Cells))
	case *gate:
		b, err := harness.LoadBaseline(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
			os.Exit(1)
		}
		if *wallTol >= 0 {
			b.WallTolX = *wallTol
		}
		violations := harness.DiffBaseline(b, res)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "ktau-sweep: gate:", v)
			}
			os.Exit(1)
		}
		fmt.Printf("gate: %d cells match %s\n", len(res.Cells), basePath)
	default:
		if failed := res.Failed(); len(failed) > 0 {
			for _, f := range failed {
				fmt.Fprintln(os.Stderr, "ktau-sweep: cell failed:", f)
			}
			os.Exit(1)
		}
	}
}

// buildGrid resolves a named grid or assembles an ad-hoc one from axis
// flags. Axis flags refine a named grid too (e.g. -grid smoke -seeds 7).
func buildGrid(name, exp, ranks, racks, workers, faults, trace, seeds string) (harness.Grid, error) {
	var g harness.Grid
	if name != "" {
		named, ok := harness.NamedGrids()[name]
		if !ok {
			return g, fmt.Errorf("unknown grid %q (see -list)", name)
		}
		g = named
	} else if exp != "" {
		g = harness.Grid{Name: "adhoc-" + exp, Exp: exp}
	} else {
		return g, fmt.Errorf("nothing to do: pass -grid, -exp or -bench-gate (see -list)")
	}
	if exp != "" && name != "" && exp != g.Exp {
		return g, fmt.Errorf("-exp %q conflicts with grid %q (spec %q)", exp, name, g.Exp)
	}
	var err error
	if apply, e := harness.ParseIntAxis(ranks); e != nil {
		err = e
	} else if apply != nil {
		g.Ranks = apply
	}
	if err == nil {
		if apply, e := harness.ParseIntAxis(racks); e != nil {
			err = e
		} else if apply != nil {
			g.Racks = apply
		}
	}
	if err == nil {
		if apply, e := harness.ParseIntAxis(workers); e != nil {
			err = e
		} else if apply != nil {
			g.Workers = apply
		}
	}
	if err == nil {
		if apply, e := harness.ParseFaultAxis(faults); e != nil {
			err = e
		} else if apply != nil {
			g.Faults = apply
		}
	}
	if err == nil {
		if apply, e := harness.ParseTraceAxisList(trace); e != nil {
			err = e
		} else if apply != nil {
			g.Trace = apply
		}
	}
	if err == nil {
		if apply, e := harness.ParseSeedAxis(seeds); e != nil {
			err = e
		} else if apply != nil {
			g.Seeds = apply
		}
	}
	return g, err
}

func printJSON(res *harness.SweepResult) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ktau-sweep:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(data, '\n'))
}
