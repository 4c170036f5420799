// Command ktau-exp regenerates the paper's evaluation: every table and
// figure of "Kernel-Level Measurement for Integrated Parallel Performance
// Views: the KTAU Project" (CLUSTER 2006) has a corresponding experiment id.
//
//	ktau-exp -exp table2            # Table 2 at full 128-rank scale
//	ktau-exp -exp fig5 -ranks 32    # Fig 5 at reduced scale
//	ktau-exp -exp all               # everything (several minutes)
//
// Absolute times are simulation-scale (runs are ~100x shorter than the
// paper's); the shapes — orderings, slowdown factors, CDF separations — are
// the reproduction targets. Paper-reported values are printed alongside
// where applicable.
//
// The scenario experiments (faults, serve, trace, traceov) are thin wrappers
// over the sweep-harness specs that cmd/ktau-sweep grids over; running them
// here executes exactly one cell and prints its rendered report. trace is
// the chiba spec under the degraded fault plan with a trace mode.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"ktau"
	"ktau/internal/experiments"
)

type runner func(ranks int, out io.Writer) error

var experimentOrder = []string{
	"table2", "table3", "table4",
	"fig2a", "fig2c", "fig2e",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"ionode",  // §6 future-work extension, not a paper table/figure
	"faults",  // monitored run under an injected fault plan, not a paper table/figure
	"serve",   // multi-tenant serving workload with tail-latency attribution
	"trace",   // cluster-wide streaming trace pipeline (merged Perfetto trace)
	"traceov", // trace-pipeline perturbation sweep (off/profile/full/sampled/adaptive)
}

// fixedScale marks the experiments that reproduce a measurement taken at one
// specific configuration; -ranks does not apply to them.
var fixedScale = map[string]bool{
	"table3": true, "table4": true,
	"fig2a": true, "fig2c": true, "fig2e": true,
	"ionode": true,
}

// traceOut is the -trace-out path; when set, the trace experiment writes
// the merged cluster trace there and validates the emitted JSON.
var traceOut string

// traceRate / traceMode select the trace experiment's pipeline: "full",
// or "adaptive" (sampling at traceRate, backlog throttling and the
// collector-driven focus loop) under -trace-adaptive or any -trace-rate
// below 1.
var (
	traceRate float64
	traceMode string
)

// expParallel / expWorkers / expRacks mirror -parallel / -workers / -racks
// for the sweep-cell wrappers, whose specs take execution mode and topology
// per cell rather than globally.
var (
	expParallel bool
	expWorkers  int
	expRacks    int
)

// reportOut is the -report path. Cell-backed experiments (faults, serve,
// trace, traceov) get the full cross-layer view built from the cell's raw
// result; classic table/figure experiments get their captured text wrapped
// as a report. lastCell carries the cell from the runner to the builder.
var (
	reportOut string
	lastCell  *ktau.SweepCell
)

func render(fn func(ranks int) interface{ Render(io.Writer) }) runner {
	return func(ranks int, out io.Writer) error {
		fn(ranks).Render(out)
		return nil
	}
}

var experimentRunners = map[string]runner{
	"table2":  render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunTable2(ranks, 1) }),
	"table3":  render(func(int) interface{ Render(io.Writer) } { return ktau.RunTable3(16, 5, 2) }),
	"table4":  render(func(int) interface{ Render(io.Writer) } { return ktau.RunTable4(100_000) }),
	"fig2a":   render(func(int) interface{ Render(io.Writer) } { return ktau.RunFig2AB(1) }), // includes 2-B and 2-D
	"fig2c":   render(func(int) interface{ Render(io.Writer) } { return ktau.RunFig2C(1) }),
	"fig2e":   render(func(int) interface{ Render(io.Writer) } { return ktau.RunFig2E(1) }),
	"fig3":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig3(ranks) }),
	"fig4":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig4(ranks) }),
	"fig5":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig5(ranks) }),
	"fig6":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig6(ranks) }),
	"fig7":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig7(ranks) }),
	"fig8":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig8(ranks) }),
	"fig9":    render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig9(ranks) }),
	"fig10":   render(func(ranks int) interface{ Render(io.Writer) } { return ktau.RunFig10(ranks) }),
	"ionode":  render(func(int) interface{ Render(io.Writer) } { return ktau.RunIONodeStudy(1) }),
	"faults":  cellRunner("faults", nil),
	"serve":   cellRunner("serve", nil),
	"trace":   runTrace,
	"traceov": cellRunner("traceov", nil),
}

// cellRunner wraps one sweep-harness spec as a ktau-exp experiment: build
// the cell parameters from the command-line flags, run the single cell, and
// print its rendered report. mutate tweaks the parameters before the run.
func cellRunner(exp string, mutate func(*ktau.SweepParams)) runner {
	return func(ranks int, out io.Writer) error {
		cell, err := runExpCell(exp, ranks, mutate)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, cell.Text)
		return err
	}
}

// runExpCell executes one harness cell for an experiment id, surfacing
// non-ok statuses (panic, error) as errors.
func runExpCell(exp string, ranks int, mutate func(*ktau.SweepParams)) (*ktau.SweepCell, error) {
	p := ktau.SweepParams{
		Exp:      exp,
		Ranks:    ranks,
		Seed:     1,
		Parallel: expParallel,
		Workers:  expWorkers,
		Racks:    expRacks,
	}
	if mutate != nil {
		mutate(&p)
	}
	cell := ktau.RunSweepCell(context.Background(), p)
	if cell.Status != ktau.SweepOK {
		return nil, fmt.Errorf("%s: cell %s: %s", exp, cell.Status, cell.Err)
	}
	lastCell = cell
	return cell, nil
}

// selectTraceMode maps -trace-adaptive and -trace-rate onto the chiba
// cell's trace axis, rejecting a rate outside (0, 1] instead of mapping it
// silently onto some pipeline.
func selectTraceMode(adaptive bool, rate float64) (string, error) {
	if err := experiments.CheckTraceRate(rate); err != nil {
		return "", fmt.Errorf("-trace-rate: %w", err)
	}
	if adaptive || rate < 1 {
		return "adaptive", nil
	}
	return "full", nil
}

// runTrace executes the traced cluster run — a chiba cell under the
// degraded fault plan — and, with -trace-out, writes the merged Chrome
// trace and verifies it with checkTrace.
func runTrace(ranks int, out io.Writer) error {
	cell, err := runExpCell("chiba", ranks, func(p *ktau.SweepParams) {
		p.Faults = "degraded"
		p.Trace = traceMode
		if traceMode == "adaptive" {
			p.Rate = traceRate
		}
	})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(out, cell.Text); err != nil {
		return err
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	werr := cell.Raw.(*ktau.LiveResult).Trace.Store().WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	f, err = os.Open(traceOut)
	if err != nil {
		return err
	}
	defer f.Close()
	events, flows, err := checkTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d events, %d flow events (valid JSON)\n",
		traceOut, events, flows)
	return nil
}

// checkTrace streams an emitted Chrome trace one event at a time, so memory
// stays flat in the trace's size, and counts its events and MPI flow
// starts ("ph":"s"). The trace must be a single JSON array of event objects
// with nothing after it, holding at least one flow event.
func checkTrace(r io.Reader) (events, flows int, err error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return 0, 0, fmt.Errorf("emitted trace is not valid JSON: %w", err)
	}
	if tok != json.Delim('[') {
		return 0, 0, fmt.Errorf("emitted trace is not a JSON array")
	}
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			return 0, 0, fmt.Errorf("emitted trace is not valid JSON: %w", err)
		}
		events++
		if ph, _ := ev["ph"].(string); ph == "s" {
			flows++
		}
	}
	if _, err := dec.Token(); err != nil {
		return 0, 0, fmt.Errorf("emitted trace is not valid JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, 0, fmt.Errorf("emitted trace has data after its closing ]")
	}
	if flows == 0 {
		return 0, 0, fmt.Errorf("emitted trace contains no MPI flow events")
	}
	return events, flows, nil
}

func main() {
	exp := flag.String("exp", "", "experiment id (table2|table3|table4|fig2a|fig2c|fig2e|fig3..fig10|trace|traceov|serve|all)")
	ranks := flag.Int("ranks", 128, "MPI ranks for the Chiba-family experiments (cluster nodes for serve)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	parallel := flag.Bool("parallel", false, "run node engines on multiple host CPUs (results are byte-identical to serial)")
	workers := flag.Int("workers", 0, "host worker goroutines, implies -parallel when positive (0 = GOMAXPROCS)")
	racksFlag := flag.Int("racks", 0, "split the cluster into this many racks with a higher cross-rack latency (changes results; partitions the runner; cell-backed experiments only)")
	flag.StringVar(&traceOut, "trace-out", "",
		"write the merged cluster trace (Perfetto-loadable JSON) to this file (trace experiment)")
	flag.Float64Var(&traceRate, "trace-rate", 1,
		"adaptive sampling rate for the trace experiment, 0 < rate <= 1 (below 1 enables the adaptive pipeline)")
	traceAdaptive := flag.Bool("trace-adaptive", false,
		"run the trace experiment with the adaptive pipeline (sampling, throttling, focus loop)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.StringVar(&reportOut, "report", "",
		"write a cross-layer performance report (.html or .md) for the experiment (single experiment only)")
	flag.Parse()

	mode, err := selectTraceMode(*traceAdaptive, traceRate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ktau-exp:", err)
		os.Exit(2)
	}
	traceMode = mode

	ranksSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ranks" {
			ranksSet = true
		}
	})

	// -workers only has an effect under -parallel; a positive count is an
	// unambiguous request for parallel execution, so imply it instead of
	// silently doing nothing.
	if *workers > 0 && !*parallel {
		fmt.Fprintf(os.Stderr, "ktau-exp: note: -workers %d implies -parallel\n", *workers)
		*parallel = true
	}
	if *parallel {
		ktau.SetParallel(true, *workers)
	}
	expParallel = *parallel
	expWorkers = *workers
	expRacks = *racksFlag

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ktau-exp:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-exp:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ktau-exp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // only reachable allocations: the steady-state picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ktau-exp:", err)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experimentOrder {
			fmt.Println("  " + id)
		}
		fmt.Println("  all")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	} else if _, ok := experimentRunners[*exp]; !ok {
		known := make([]string, 0, len(experimentRunners))
		for id := range experimentRunners {
			known = append(known, id)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "ktau-exp: unknown experiment %q (known: %s)\n",
			*exp, strings.Join(known, ", "))
		os.Exit(2)
	}
	if reportOut != "" && len(ids) != 1 {
		fmt.Fprintln(os.Stderr, `ktau-exp: -report covers a single experiment; pick one instead of "all"`)
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ktau-exp:", err)
			os.Exit(1)
		}
	}

	for _, id := range ids {
		if ranksSet && fixedScale[id] {
			fmt.Fprintf(os.Stderr, "ktau-exp: note: %s runs at a fixed scale; -ranks %d ignored\n",
				id, *ranks)
		}
		if err := runOne(id, *ranks, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "ktau-exp: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// runOne executes a single experiment, teeing its output to <outDir>/<id>.txt
// when requested. The per-experiment file is closed (and its close error
// surfaced) even when the runner fails. With -report, the cross-layer view
// is written after the run: cell-backed experiments render the structured
// cell report, everything else wraps the captured text.
func runOne(id string, ranks int, outDir string) (err error) {
	start := time.Now()
	fmt.Printf("==== %s ====\n", id)
	var out io.Writer = os.Stdout
	if outDir != "" {
		f, cerr := os.Create(filepath.Join(outDir, id+".txt"))
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = io.MultiWriter(out, f)
	}
	var captured bytes.Buffer
	if reportOut != "" {
		out = io.MultiWriter(out, &captured)
	}
	if err := experimentRunners[id](ranks, out); err != nil {
		return err
	}
	if reportOut != "" {
		var rep *ktau.Report
		if lastCell != nil {
			rep = ktau.BuildCellReport(lastCell)
		} else {
			rep = ktau.BuildTextReport("ktau-exp "+id, captured.String())
		}
		if err := ktau.WriteReportFile(reportOut, rep); err != nil {
			return err
		}
		fmt.Println("report written:", reportOut)
	}
	fmt.Printf("---- %s done in %v wall ----\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
