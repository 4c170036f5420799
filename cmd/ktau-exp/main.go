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
// the chiba spec under the degraded fault plan with a trace mode. Only trace
// and serve take -racks; -trace-out, -trace-rate and -trace-adaptive exit 2
// on a run that does not include trace.
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
	"slices"
	"sort"
	"strings"
	"time"

	"ktau/internal/experiments"
	"ktau/internal/harness"
	"ktau/internal/views"
)

// runner runs one experiment id at a rank count and rack count; racks is 0
// for every id but those in readsRacks.
type runner func(ranks, racks int, out io.Writer) error

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

// readsRacks marks the experiments whose run takes a rack topology; -racks
// does not apply to the rest.
var readsRacks = map[string]bool{"trace": true, "serve": true}

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

// expParallel / expWorkers mirror -parallel / -workers for the sweep-cell
// wrappers, whose specs take execution mode per cell rather than globally.
var (
	expParallel bool
	expWorkers  int
)

// reportOut is the -report path. Cell-backed experiments (faults, serve,
// trace, traceov) get the full cross-layer view built from the cell's raw
// result; classic table/figure experiments get their captured text wrapped
// as a report. lastCell carries the cell from the runner to the builder.
var (
	reportOut string
	lastCell  *harness.CellResult
)

func render(fn func(ranks int) interface{ Render(io.Writer) }) runner {
	return func(ranks, _ int, out io.Writer) error {
		fn(ranks).Render(out)
		return nil
	}
}

var experimentRunners = map[string]runner{
	"table2":  render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunTable2(ranks, 1) }),
	"table3":  render(func(int) interface{ Render(io.Writer) } { return experiments.RunTable3(16, 5, 2) }),
	"table4":  render(func(int) interface{ Render(io.Writer) } { return experiments.RunTable4(100_000) }),
	"fig2a":   render(func(int) interface{ Render(io.Writer) } { return experiments.RunFig2AB(1) }), // includes 2-B and 2-D
	"fig2c":   render(func(int) interface{ Render(io.Writer) } { return experiments.RunFig2C(1) }),
	"fig2e":   render(func(int) interface{ Render(io.Writer) } { return experiments.RunFig2E(1) }),
	"fig3":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig3(ranks) }),
	"fig4":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig4(ranks) }),
	"fig5":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig5(ranks) }),
	"fig6":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig6(ranks) }),
	"fig7":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig7(ranks) }),
	"fig8":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig8(ranks) }),
	"fig9":    render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig9(ranks) }),
	"fig10":   render(func(ranks int) interface{ Render(io.Writer) } { return experiments.RunFig10(ranks) }),
	"ionode":  render(func(int) interface{ Render(io.Writer) } { return experiments.RunIONodeStudy(1) }),
	"faults":  cellRunner("faults"),
	"serve":   cellRunner("serve"),
	"trace":   runTrace,
	"traceov": cellRunner("traceov"),
}

// cellRunner wraps one sweep-harness spec as a ktau-exp experiment: build
// the cell parameters from the command-line flags, run the single cell, and
// print its rendered report.
func cellRunner(exp string) runner {
	return func(ranks, racks int, out io.Writer) error {
		cell, err := runExpCell(exp, ranks, racks, nil)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, cell.Text)
		return err
	}
}

// runExpCell executes one harness cell for an experiment id, surfacing
// non-ok statuses (panic, error) as errors.
func runExpCell(exp string, ranks, racks int, mutate func(*harness.Params)) (*harness.CellResult, error) {
	p := harness.Params{
		Exp:      exp,
		Ranks:    ranks,
		Seed:     1,
		Parallel: expParallel,
		Workers:  expWorkers,
		Racks:    racks,
	}
	if mutate != nil {
		mutate(&p)
	}
	cell := harness.RunCell(context.Background(), p)
	if cell.Status != harness.StatusOK {
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

// checkTraceFlags refuses the trace experiment's flags (set holds the flags
// given on the command line) when ids does not include trace: they would
// otherwise do nothing, and -trace-out would write no file.
func checkTraceFlags(ids []string, set map[string]bool) error {
	for _, name := range []string{"trace-out", "trace-adaptive", "trace-rate"} {
		if set[name] && !slices.Contains(ids, "trace") {
			return fmt.Errorf("-%s applies only to the trace experiment, which this run does not include", name)
		}
	}
	return nil
}

// flagsFor returns the rack count experiment id's run takes (0 outside
// readsRacks) and a note for each flag given on the command line (set) that
// the id does not read: -ranks on a fixed-scale id, -racks outside
// readsRacks.
func flagsFor(id string, set map[string]bool, ranks, racks int) (int, []string) {
	var notes []string
	if set["ranks"] && fixedScale[id] {
		notes = append(notes, fmt.Sprintf("%s runs at a fixed scale; -ranks %d ignored", id, ranks))
	}
	if readsRacks[id] {
		return racks, notes
	}
	if set["racks"] {
		notes = append(notes, fmt.Sprintf("%s runs on a flat network; -racks %d ignored", id, racks))
	}
	return 0, notes
}

// runTrace executes the traced cluster run — a chiba cell under the
// degraded fault plan — and, with -trace-out, writes the merged Chrome
// trace and verifies it with checkTrace.
func runTrace(ranks, racks int, out io.Writer) error {
	cell, err := runExpCell("chiba", ranks, racks, func(p *harness.Params) {
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
	werr := cell.Raw.(*experiments.LiveResult).Trace.Store().WriteChromeTrace(f)
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
	racksFlag := flag.Int("racks", 0, "split the cluster into this many racks with a higher cross-rack latency (changes results; partitions the runner; trace and serve only)")
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

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// -workers only has an effect under -parallel; a positive count is an
	// unambiguous request for parallel execution, so imply it instead of
	// silently doing nothing.
	if *workers > 0 && !*parallel {
		fmt.Fprintf(os.Stderr, "ktau-exp: note: -workers %d implies -parallel\n", *workers)
		*parallel = true
	}
	if *parallel {
		experiments.SetParallel(true, *workers)
	}
	expParallel = *parallel
	expWorkers = *workers

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
	if err := checkTraceFlags(ids, set); err != nil {
		fmt.Fprintln(os.Stderr, "ktau-exp:", err)
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
		racks, notes := flagsFor(id, set, *ranks, *racksFlag)
		for _, note := range notes {
			fmt.Fprintln(os.Stderr, "ktau-exp: note:", note)
		}
		if err := runOne(id, *ranks, racks, *outDir); err != nil {
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
func runOne(id string, ranks, racks int, outDir string) (err error) {
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
	if err := experimentRunners[id](ranks, racks, out); err != nil {
		return err
	}
	if reportOut != "" {
		var rep *views.Report
		if lastCell != nil {
			rep = views.BuildCell(lastCell)
		} else {
			rep = views.BuildText("ktau-exp "+id, captured.String())
		}
		if err := views.WriteFile(reportOut, rep); err != nil {
			return err
		}
		fmt.Println("report written:", reportOut)
	}
	fmt.Printf("---- %s done in %v wall ----\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
