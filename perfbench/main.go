// Command perfbench measures the simulator's own host cost on fixed
// workloads. Every simulated output is a correctness check (a digest that
// must match the experiments path and, for the default seed, the committed
// value); the metrics are host time and memory. With -trace 1 it also times
// the calls into each layer and reads the layers' counters.
//
// Run from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload lu_rack_w2 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one invocation's state.
type bench struct {
	w         *workload
	seed      uint64
	log       io.Writer
	reference string
	expected  string // committed digest for this seed, "" when none
	baseG     int    // goroutines alive before any run
	attempted int
	failed    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "simulation seed")
	seconds := fs.Int("seconds", 20, "measurement budget in host seconds")
	traceFlag := fs.Int("trace", 0, "1 = also make traced runs and report per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "spans"), "directory for the span dump of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	exp, err := expectedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, seed: uint64(*seed), log: stderr, expected: exp[w.name][strconv.FormatInt(*seed, 10)]}

	env := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(),
	}
	envLine, _ := json.Marshal(env) // a map of strings and numbers always marshals
	fmt.Fprintf(stdout, "perfbench env %s\n", envLine)

	// A hung simulation must not hold the caller forever: give up, without
	// a result, well after any healthy invocation would have finished.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+140*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: invocation overran its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	b.baseG = runtime.NumGoroutine()
	if err := b.checkReference(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 0 {
		untraced, setups := b.reps(budget, 3, nil, setupsPerRun)
		res.Metrics = endToEnd(untraced, setups)
	} else {
		untraced, _ := b.reps(budget/2, 2, nil, 0)
		tr := newTracer()
		traced, _ := b.reps(budget/2, 2, tr, 0)
		res.Metrics = b.perLayer(untraced, traced, tr)
		if err := b.dumpSpans(tr, *outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench: span dump:", err)
			return 1
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// checkReference runs the experiments path once (untimed; it also warms
// caches) and checks its digest against the committed one for this seed.
// Every timed run must then reproduce it.
func (b *bench) checkReference() error {
	t0 := time.Now()
	d, err := b.w.reference(b.seed)
	b.attempted++
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := b.settle(); err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAIL reference run: %v\n", err)
	}
	b.reference = d
	fmt.Fprintf(b.log, "reference %s seed=%d digest=%s (%.2fs)\n", b.w.name, b.seed, d, time.Since(t0).Seconds())
	if b.expected != "" && d != b.expected {
		b.failed++
		fmt.Fprintf(b.log, "FAIL reference digest differs from expected.json: got %s want %s\n", d, b.expected)
	}
	return nil
}

// rep is one measured run.
type rep struct {
	*outcome
	alloc    uint64
	heapPeak uint64
	goPeak   int
	gcCycles uint32
	gcPause  time.Duration
}

// setupsPerRun is how many set-up-only runs follow each full untraced run.
// Set-up takes milliseconds, so one sample per full run would leave its
// median to a handful of noisy readings.
const setupsPerRun = 10

// reps runs the workload until the budget is spent (at least minRuns
// times) and checks each run's output. After each full run it makes
// setupEach set-up-only runs; the returned set-up times cover both kinds.
func (b *bench) reps(budget time.Duration, minRuns int, tr *tracer, setupEach int) ([]rep, []float64) {
	var out []rep
	var walls, setups []float64
	start := time.Now()
	for len(out) < minRuns || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := startSampler()
		o := execute(b.w, b.seed, tr, false)
		s.finish()
		runtime.ReadMemStats(&m1)
		r := rep{
			outcome:  o,
			alloc:    m1.TotalAlloc - m0.TotalAlloc,
			heapPeak: s.heapPeak,
			goPeak:   s.goPeak,
			gcCycles: m1.NumGC - m0.NumGC,
			gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		}
		b.attempted++
		if o.digest != b.reference {
			o.problems = append(o.problems, fmt.Sprintf("digest %s != reference %s", o.digest, b.reference))
		}
		if len(o.problems) > 0 {
			b.failed++
			fmt.Fprintf(b.log, "FAIL run %d: %s\n", b.attempted, strings.Join(o.problems, "; "))
		}
		fmt.Fprintf(b.log, "run %d traced=%v wall=%.3fs cpu=%.3fs setup=%.3fs step=%.3fs steps=%d alloc=%.0fMB heap_peak=%.0fMB\n",
			b.attempted, tr != nil, o.wall.Seconds(), o.cpu.Seconds(), o.setup.Seconds(), o.stepTime.Seconds(), o.steps,
			float64(r.alloc)/1e6, float64(r.heapPeak)/1e6)
		if err := b.settle(); err != nil {
			b.failed++
			fmt.Fprintf(b.log, "FAIL run %d: %v\n", b.attempted, err)
		}
		out = append(out, r)
		walls = append(walls, o.wall.Seconds())
		setups = append(setups, o.setupCPU.Seconds())
		for i := 0; i < setupEach; i++ {
			so := execute(b.w, b.seed, nil, true)
			if err := b.settle(); err != nil {
				b.failed++
				fmt.Fprintf(b.log, "FAIL set-up-only run: %v\n", err)
			}
			setups = append(setups, so.setupCPU.Seconds())
		}
	}
	return out, setups
}

// settle waits until the previous run's task goroutines have exited, then
// forces a GC, so no run pays for its predecessor's teardown.
func (b *bench) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > b.baseG {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running 30s after shutdown (baseline %d)",
				runtime.NumGoroutine(), b.baseG)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	return nil
}

func medianOf(rs []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd reports the untraced runs. Times are process CPU seconds: on a
// shared host, wall time follows the neighbours' load (it moved by a
// quarter between invocations minutes apart while CPU time moved by a
// twentieth), so wall time is reported per layer, ungated. The heap peak is
// the highest any run reached: within one seed it lands on one of two
// levels depending on where a GC cycle falls, so a median flips between
// them.
func endToEnd(rs []rep, setups []float64) map[string]metric {
	var peak uint64
	for _, r := range rs {
		peak = max(peak, r.heapPeak)
	}
	return map[string]metric{
		"cpu_s":   {medianOf(rs, func(r rep) float64 { return r.cpu.Seconds() }), "s"},
		"setup_s": {median(setups), "s"},
		"events_per_cpu_s": {medianOf(rs, func(r rep) float64 {
			return r.counts["ktau.probes"] / r.stepCPU.Seconds()
		}), "1/s"},
		"alloc_mb":     {medianOf(rs, func(r rep) float64 { return float64(r.alloc) / 1e6 }), "MB"},
		"heap_peak_mb": {float64(peak) / 1e6, "MB"},
	}
}

// layerCounts lists the deterministic per-layer counters every workload
// reports (0 where the layer does not run).
var layerCounts = []string{
	"kernel.ctx_switches", "kernel.timer_irqs", "kernel.dev_irqs", "kernel.softirqs",
	"ktau.probes",
	"mpisim.sends", "mpisim.bytes",
	"netsim.frames", "netsim.bytes",
	"tcpsim.segs", "tcpsim.acks", "tcpsim.conns_opened", "tcpsim.open_conns_end",
	"perfmon.frames", "perfmon.drops", "perfmon.wire_bytes",
	"tracepipe.frames", "tracepipe.records", "tracepipe.msgs", "tracepipe.flows", "tracepipe.lost",
	"servesim.requests", "servesim.ok", "servesim.drops",
}

// layerSpans maps span names to the per-layer time metrics they feed.
var layerSpans = map[string]string{
	"cluster.boot":       "cluster.boot_s",
	"ktau.harvest":       "ktau.harvest_s",
	"perfmon.deploy":     "perfmon.deploy_s",
	"perfmon.detect":     "perfmon.detect_s",
	"perfmon.export":     "perfmon.export_s",
	"tracepipe.deploy":   "tracepipe.deploy_s",
	"tracepipe.merge":    "tracepipe.merge_s",
	"tracepipe.export":   "tracepipe.export_s",
	"servesim.deploy":    "servesim.deploy_s",
	"servesim.attribute": "servesim.attribute_s",
}

// perLayer reports the traced runs: per-layer counts (which must repeat
// exactly across runs), span times, step statistics and Go runtime costs.
func (b *bench) perLayer(untraced, traced []rep, tr *tracer) map[string]metric {
	out := map[string]metric{}
	first := traced[0]
	for _, name := range layerCounts {
		v := first.counts[name]
		for i, r := range traced[1:] {
			if r.counts[name] != v {
				b.failed++
				fmt.Fprintf(b.log, "FAIL %s differs between traced runs: %v vs %v (run %d)\n", name, v, r.counts[name], i+2)
			}
		}
		unit := "count"
		if strings.HasSuffix(name, "bytes") {
			unit = "bytes"
		}
		out[name] = metric{v, unit}
	}

	perRun := make([]map[string]time.Duration, len(traced))
	for i := range traced {
		perRun[i] = tr.runTotals(i + 1)
	}
	for span, name := range layerSpans {
		xs := make([]float64, len(perRun))
		for i, m := range perRun {
			xs[i] = m[span].Seconds()
		}
		out[name] = metric{median(xs), "s"}
	}

	stepS := medianOf(traced, func(r rep) float64 { return r.stepTime.Seconds() })
	out["sim.step_s"] = metric{stepS, "s"}
	out["sim.steps"] = metric{float64(first.steps), "count"}
	out["sim.groups"] = metric{float64(first.groups), "count"}
	out["sim.step_us_p50"] = metric{float64(quantileDur(tr.steps, 0.50)) / 1e3, "us"}
	out["sim.step_us_p99"] = metric{float64(quantileDur(tr.steps, 0.99)) / 1e3, "us"}
	out["kernel.step_ns_per_switch"] = metric{ratioNS(stepS, first.counts["kernel.ctx_switches"]), "ns"}
	out["ktau.step_ns_per_probe"] = metric{ratioNS(stepS, first.counts["ktau.probes"]), "ns"}

	out["go.gc_cycles"] = metric{medianOf(traced, func(r rep) float64 { return float64(r.gcCycles) }), "count"}
	out["go.gc_pause_ms"] = metric{medianOf(traced, func(r rep) float64 { return r.gcPause.Seconds() * 1e3 }), "ms"}
	out["go.goroutines_peak"] = metric{medianOf(traced, func(r rep) float64 { return float64(r.goPeak) }), "count"}

	wallU := medianOf(untraced, func(r rep) float64 { return r.wall.Seconds() })
	wallT := medianOf(traced, func(r rep) float64 { return r.wall.Seconds() })
	out["bench.wall_s"] = metric{wallU, "s"}
	out["bench.events_per_wall_s"] = metric{medianOf(untraced, func(r rep) float64 {
		return r.counts["ktau.probes"] / r.stepTime.Seconds()
	}), "1/s"}
	out["bench.trace_overhead_pct"] = metric{(wallT - wallU) / wallU * 100, "%"}
	out["bench.fail_ratio"] = metric{float64(b.failed) / float64(b.attempted), "ratio"}
	return out
}

func ratioNS(seconds, count float64) float64 {
	if count == 0 {
		return 0
	}
	return seconds * 1e9 / count
}

// dumpSpans writes the traced runs' spans (with self times) as JSON lines
// and prints a per-name summary.
func (b *bench) dumpSpans(tr *tracer, dir string) error {
	tr.computeSelf()
	tr.summary(b.log)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.dump(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "spans written to %s\n", path)
	return nil
}

// commit reads the checked-out commit from .git in the working directory
// without running git; "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
