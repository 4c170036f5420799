package experiments

import (
	"fmt"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/faultsim"
	"ktau/internal/perfmon"
	"ktau/internal/tracepipe"
	"ktau/internal/workload"
)

// LiveOptions configures a monitored (online) Chiba run.
type LiveOptions struct {
	// PerfMon configures the monitoring pipeline. RankPrefix defaults to
	// "<Work>.rank" so detectors classify MPI ranks automatically.
	PerfMon perfmon.Config
	// NoisyNodes injects the §5.1 overhead daemon on these node indices,
	// using Noisy (or workload.OverheadDaemon timing when zero).
	NoisyNodes []int
	Noisy      workload.DaemonSpec
	// Faults, when non-nil, is applied to the cluster before the job and the
	// pipeline start: the "Chiba with faults" configuration.
	Faults *faultsim.Plan
	// Trace, when non-nil, deploys the streaming trace pipeline alongside
	// the profile pipeline: per-node ktraced agents drain every kernel ring
	// plus the ranks' TAU rings and MPI message logs (sources are wired
	// automatically from the job's placement), shipping to the elected
	// collector. The spec should set TraceCapacity > 0 or the rings are
	// disabled and the trace comes out empty.
	Trace *tracepipe.Config
	// JobDeadline caps the job's virtual runtime (default 10 minutes). Fault
	// runs that crash a node leave the surviving ranks blocked on a dead
	// peer forever, so crash scenarios set a tight cap.
	JobDeadline time.Duration
	// Observe, when non-nil, runs after the harvest but before the cluster
	// shuts down — the only window in which callers (the sweep harness's
	// profile fingerprints) can still read node state like packed
	// /proc/ktau profiles.
	Observe func(*cluster.Cluster, *LiveResult)
}

// LiveChiba returns the monitored Chiba run every live entry point shares
// (the sweep's chiba cells, ktau-exp's trace experiment, the perturbation
// study and the detection check): NPB LU at one rank per node for 4
// iterations, perfmon shipping every 20 ms, under the named fault plan and
// trace mode.
//
// faults is "none" (or ""), "degraded" (DegradedPlan) or "crash" (CrashPlan,
// with the job and the pipeline bounded). trace is "off" (or ""), "full" or
// "adaptive": both trace modes enable 4096-record rings and ship every
// 25 ms; adaptive samples at the base rate (0 selects 0.25) with the
// throttle thresholds tightened so the fault plans drive the state machine
// through degrade/recover transitions. An unknown plan or mode, or an
// adaptive rate outside (0, 1], is an error.
func LiveChiba(ranks int, seed uint64, faults, trace string, rate float64) (ChibaSpec, LiveOptions, error) {
	spec := DefaultChiba(ranks, 1)
	spec.Seed = seed
	spec.Iters = 4
	opts := LiveOptions{PerfMon: perfmon.Config{Interval: 20 * time.Millisecond}}
	switch faults {
	case "", "none":
	case "degraded":
		plan := DegradedPlan(ranks, seed)
		opts.Faults = &plan
	case "crash":
		plan := CrashPlan(seed)
		opts.Faults = &plan
		boundCrash(&opts)
	default:
		return ChibaSpec{}, LiveOptions{}, fmt.Errorf("unknown fault plan %q (none|degraded|crash)", faults)
	}
	switch trace {
	case "", "off":
		return spec, opts, nil
	case "full":
		opts.Trace = &tracepipe.Config{Interval: traceInterval}
	case "adaptive":
		if rate == 0 {
			rate = 0.25
		}
		if err := CheckTraceRate(rate); err != nil {
			return ChibaSpec{}, LiveOptions{}, err
		}
		cfg := AdaptiveTraceConfig(rate)
		cfg.Adaptive.ThrottleHigh = 512
		cfg.Adaptive.ThrottleLow = 128
		opts.Trace = cfg
	default:
		return ChibaSpec{}, LiveOptions{}, fmt.Errorf("unknown trace mode %q (off|full|adaptive)", trace)
	}
	spec.TraceCapacity = 4096
	return spec, opts, nil
}

// CheckTraceRate rejects an adaptive base sampling rate outside (0, 1],
// NaN included.
func CheckTraceRate(rate float64) error {
	if rate > 0 && rate <= 1 {
		return nil
	}
	return fmt.Errorf("bad adaptive rate %g (want 0 < rate <= 1)", rate)
}

// LiveNodeData is one node's kernel activity as the online store saw it,
// converted to the same units as the offline NodeData for cross-checking.
type LiveNodeData struct {
	Name string
	// GroupExcl is cumulative kernel exclusive time per instrumentation
	// group, summed from the store's per-event totals.
	GroupExcl map[string]time.Duration
	// TCPRcvCalls is the cumulative tcp_v4_rcv activation count.
	TCPRcvCalls uint64
	// WireBytes is the collection payload the node shipped (0 on the
	// collector, which ingests locally).
	WireBytes uint64
}

// LiveResult pairs the offline post-mortem harvest of a run with the state
// the online pipeline accumulated while watching the same run — the two
// views the cross-check tests compare.
type LiveResult struct {
	*ChibaResult
	// Store is the collector's time-series database at end of run.
	Store *perfmon.Store
	// Collector is the elected collector node index.
	Collector int
	// Noise is the final online OS-noise report.
	Noise perfmon.NoiseReport
	// LiveNodes mirrors ChibaResult.Nodes from the store's perspective,
	// node index order.
	LiveNodes []LiveNodeData
	// Drained reports whether the pipeline delivered every final frame.
	Drained bool
	// Injector carries the applied fault plan's counters (nil without faults).
	Injector *faultsim.Injector
	// Failovers counts collector re-elections the pipeline performed.
	Failovers int
	// Trace is the deployed trace pipeline (nil unless LiveOptions.Trace was
	// set); its Store holds the merged cluster trace and self-metrics.
	Trace *tracepipe.Pipeline
	// TraceDrained reports whether the trace pipeline's tasks all exited.
	TraceDrained bool
}

// RunChibaLive executes one Chiba configuration with the perfmon pipeline
// deployed alongside the job: every node's kmond agent ships deltas to the
// elected collector over the same simulated network the MPI job uses, while
// the job runs. After the job exits the pipeline performs one final round,
// and the result carries both the live store and the usual offline harvest
// for comparison.
func RunChibaLive(spec ChibaSpec, opts LiveOptions) *LiveResult {
	c, w, tasks := launchChiba(spec)
	defer c.Shutdown()

	for _, idx := range opts.NoisyNodes {
		if idx < 0 || idx >= len(c.Nodes) {
			continue
		}
		d := opts.Noisy
		if d.Period <= 0 {
			d = workload.OverheadDaemon()
		}
		workload.StartDaemon(c.Node(idx).K, d)
	}

	var inj *faultsim.Injector
	if opts.Faults != nil {
		var err error
		inj, err = faultsim.Apply(c, *opts.Faults)
		if err != nil {
			panic("experiments: " + err.Error())
		}
	}

	pcfg := opts.PerfMon
	if pcfg.RankPrefix == "" {
		pcfg.RankPrefix = spec.Work.String() + ".rank"
	}
	pm, err := perfmon.Deploy(c, pcfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}

	var tp *tracepipe.Pipeline
	if opts.Trace != nil {
		tcfg := *opts.Trace
		if tcfg.Focus != nil {
			// The focus loop watches the profile pipeline's detector; wire the
			// deployment we just made unless the caller supplied its own.
			fc := *tcfg.Focus
			if fc.Store == nil {
				fc.Store = pm.Store()
			}
			if fc.RankPrefix == "" {
				fc.RankPrefix = pcfg.RankPrefix
			}
			if fc.Detect == (perfmon.DetectConfig{}) {
				fc.Detect = pm.Config().Detect
			}
			tcfg.Focus = &fc
		}
		wireTraceSources(&tcfg, spec, w)
		tp, err = tracepipe.Deploy(c, tcfg)
		if err != nil {
			panic("experiments: " + err.Error())
		}
	}

	deadline := opts.JobDeadline
	if deadline <= 0 {
		deadline = 10 * time.Minute
	}
	completed := c.RunUntilDone(tasks, deadline)
	pm.Stop()
	if tp != nil {
		tp.Stop()
	}
	drained := c.RunUntilDone(pm.Tasks(), time.Minute)
	traceDrained := true
	if tp != nil {
		traceDrained = c.RunUntilDone(tp.Tasks(), time.Minute)
	}
	c.Settle(5 * time.Millisecond)

	res := harvest(spec, c, w, tasks, completed)
	store := pm.Store()
	out := &LiveResult{
		ChibaResult:  res,
		Store:        store,
		Collector:    pm.Collector(),
		Noise:        store.DetectNoise(pm.Config().Detect, pm.Config().RankPrefix),
		Drained:      drained,
		Injector:     inj,
		Failovers:    pm.Failovers(),
		Trace:        tp,
		TraceDrained: traceDrained,
	}
	wire := map[string]uint64{}
	for _, info := range store.Nodes() {
		wire[info.Name] = info.Bytes
	}
	for _, n := range c.Nodes {
		ld := LiveNodeData{
			Name:      n.Name,
			GroupExcl: map[string]time.Duration{},
			WireBytes: wire[n.Name],
		}
		for _, t := range store.Totals(n.Name) {
			ld.GroupExcl[t.Group.String()] += n.K.DurationOf(t.Excl)
			if t.Name == "tcp_v4_rcv" {
				ld.TCPRcvCalls = t.Calls
			}
		}
		out.LiveNodes = append(out.LiveNodes, ld)
	}
	if opts.Observe != nil {
		opts.Observe(c, out)
	}
	return out
}
