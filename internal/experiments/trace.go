package experiments

import (
	"fmt"
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/ktau"
	"ktau/internal/mpisim"
	"ktau/internal/tracepipe"
)

// wireTraceSources points a tracepipe deployment at the MPI job: each node's
// agent additionally drains the TAU user-level ring and the MPI message
// endpoint log of every rank placed on it (rank r lives on node r % nodes).
// Must run before the engine is driven — it enables the per-rank message
// logs, whose sequence counters must start before any traffic flows.
func wireTraceSources(cfg *tracepipe.Config, spec ChibaSpec, w *mpisim.World) {
	nodes := spec.Ranks / spec.PerNode
	w.EnableMsgLog()
	byNode := make([][]int, nodes)
	for r := 0; r < spec.Ranks; r++ {
		byNode[r%nodes] = append(byNode[r%nodes], r)
	}
	cfg.UserSources = func(idx int) []tracepipe.UserSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.UserSource, 0, len(byNode[idx]))
		for _, r := range byNode[idx] {
			rk := w.Rank(r)
			out = append(out, tracepipe.UserSource{
				PID:  rk.Task.PID(),
				Task: rk.Task.Name(),
				Drain: func() ([]tracepipe.Rec, uint64) {
					// Tau is created when the rank's task first runs; until
					// then there is nothing to drain.
					if rk.Tau == nil {
						return nil, 0
					}
					// The drained slice is the profiler's own buffer until
					// the next drain, so it is converted at once.
					recs := rk.Tau.DrainTrace()
					conv := make([]tracepipe.Rec, 0, len(recs))
					for _, t := range recs {
						kind := ktau.KindExit
						if t.Entry {
							kind = ktau.KindEntry
						}
						conv = append(conv, tracepipe.Rec{TSC: t.TSC, Name: t.Name, Kind: kind})
					}
					return conv, rk.Tau.TraceLost()
				},
			})
		}
		return out
	}
	cfg.MsgSources = func(idx int) []tracepipe.MsgSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.MsgSource, 0, len(byNode[idx]))
		for _, r := range byNode[idx] {
			rk := w.Rank(r)
			out = append(out, tracepipe.MsgSource{
				Drain: func() []tracepipe.Msg {
					evs := rk.DrainMsgs() // the rank's buffer: converted at once
					conv := make([]tracepipe.Msg, 0, len(evs))
					for _, e := range evs {
						conv = append(conv, tracepipe.Msg{
							Src: e.Src, Dst: e.Dst, Tag: e.Tag, Bytes: e.Bytes,
							Seq: e.Seq, Send: e.Send, PID: rk.Task.PID(),
							StartTSC: e.StartTSC, EndTSC: e.EndTSC,
						})
					}
					return conv
				},
			})
		}
		return out
	}
}

// traceInterval is the collection interval of every traced run's ktraced
// agents.
const traceInterval = 25 * time.Millisecond

// TraceChibaSpec is the standard traced cluster run: LiveChiba under
// DegradedPlan with the full trace pipeline, so the kernel and user trace
// rings, the profile pipeline and the trace pipeline all ship over the
// same faulty network. ktau-exp's trace experiment and the perfbench
// lu_traced workload run this configuration.
func TraceChibaSpec(ranks int, seed uint64) (ChibaSpec, LiveOptions) {
	spec, opts, _ := LiveChiba(ranks, seed, "degraded", "full", 0) // valid names: no error
	return spec, opts
}

// AdaptiveTraceConfig returns the production ("always-on") trace-pipeline
// configuration: deterministic sampling of every event group at the given
// base rate, backlog throttling at the defaults, and the collector-driven
// focus loop (flagged nodes get full tracing; RunChibaLive wires the
// detector's store and rank prefix automatically).
func AdaptiveTraceConfig(rate float64) *tracepipe.Config {
	return &tracepipe.Config{
		Interval: traceInterval,
		Adaptive: &tracepipe.Adaptive{
			Base: tracepipe.Policy{Groups: ktau.GroupAll, Rate: rate},
		},
		Focus: &tracepipe.FocusConfig{Interval: 100 * time.Millisecond},
	}
}

// RenderTrace prints a traced run's summary: collection volume, flow
// correlation, and per-node pipeline self-metrics. It prints nothing for a
// run without the trace pipeline.
func (r *LiveResult) RenderTrace(w io.Writer) {
	if r.Trace == nil {
		return
	}
	st := r.Trace.Store()
	recs, msgs := st.Totals()
	fmt.Fprintf(w, "Cluster trace: %d records, %d MPI endpoint events, %d correlated flows, %d sampled out\n",
		recs, msgs, len(st.Flows()), st.SampledOut())
	fmt.Fprintf(w, "collector=node%d failovers=%d drained=%v\n",
		r.Trace.CollectorNode(), r.Trace.Failovers(), r.TraceDrained)
	stats := st.Stats()
	rows := make([][]string, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, []string{
			s.Node,
			fmt.Sprintf("%d", s.Frames),
			fmt.Sprintf("%d", s.KernRecords),
			fmt.Sprintf("%d", s.UserRecords),
			fmt.Sprintf("%d", s.KernRingLost+s.UserRingLost),
			fmt.Sprintf("%d", s.KernSampledOut+s.UserSampledOut),
			fmt.Sprintf("%d", s.ThrottlePeak),
			fmt.Sprintf("%d", s.ReadErrs),
			fmt.Sprintf("%d/%d", s.AgentDroppedFrames, s.SinkDroppedFrames),
			fmt.Sprintf("%d", s.BacklogPeak),
			fmt.Sprintf("%d", s.WireBytes),
			fmt.Sprintf("%v", s.Down),
		})
	}
	analysis.Table(w, []string{
		"Node", "Frames", "KernRecs", "UserRecs", "RingLost", "Sampled", "ThrPk",
		"ReadErrs", "Drops a/s", "BacklogPk", "WireBytes", "Down",
	}, rows)
}

// ---- Perturbation study: tracing overhead (the method of Tables 2-4
// applied to the pipeline itself, as STaKTAU does for the profiler) ----

// TraceOverheadRow is one collection configuration's outcome.
type TraceOverheadRow struct {
	Config string
	// Rate is the trace sampling rate in effect (1 = full tracing; 0 for
	// configurations that collect no traces). Adaptive marks the
	// throttle+focus configuration.
	Rate     float64
	Adaptive bool
	Exec     time.Duration
	// SlowPct is slowdown versus the uninstrumented-collection baseline,
	// clamped at 0 as the paper reports.
	SlowPct float64
	// Records / WireBytes count what the deployed pipelines shipped;
	// SampledOut what the sampling policies deliberately discarded.
	Records    uint64
	SampledOut uint64
	WireBytes  uint64
}

// TraceOverheadResult quantifies the observation pipelines' own
// perturbation as a sampling-rate sweep: the same job run with collection
// off, with the profile pipeline only, with full tracing, with fixed-rate
// sampled tracing, and with the full adaptive (sampled + throttled +
// focused) configuration that is meant to stay on in production.
type TraceOverheadResult struct {
	Ranks int
	Rows  []TraceOverheadRow
}

// Row returns the named configuration's row (nil if absent).
func (t *TraceOverheadResult) Row(config string) *TraceOverheadRow {
	for i := range t.Rows {
		if t.Rows[i].Config == config {
			return &t.Rows[i]
		}
	}
	return nil
}

// RunTraceOverhead reruns one Chiba workload across the collection
// configurations and reports the per-layer slowdown. The adaptive row is
// the ROADMAP target: Profile+Trace(adaptive) must stay under 5%. parallel
// and workers select how the runs execute on the host, as the ChibaSpec
// fields of those names do.
func RunTraceOverhead(ranks int, seed uint64, parallel bool, workers int) *TraceOverheadResult {
	// Both runs are fault-free; the names are valid, so neither call errs.
	base, profOpts, _ := LiveChiba(ranks, seed, "none", "off", 0)
	traced, fullOpts, _ := LiveChiba(ranks, seed, "none", "full", 0)
	base.Parallel, base.Workers = parallel, workers
	traced.Parallel, traced.Workers = parallel, workers

	res := &TraceOverheadResult{Ranks: ranks}

	// Off: the job alone — profiling instrumentation present (ProfAll+Tau,
	// as every Chiba run), but nothing collects at runtime.
	off := RunChiba(base)
	res.Rows = append(res.Rows, TraceOverheadRow{Config: "Off", Exec: off.Exec})

	// Profile: perfmon agents ship profile deltas while the job runs.
	prof := RunChibaLive(base, profOpts)
	var profWire uint64
	for _, n := range prof.LiveNodes {
		profWire += n.WireBytes
	}
	res.Rows = append(res.Rows, TraceOverheadRow{
		Config: "Profile", Exec: prof.Exec, WireBytes: profWire,
	})

	// Traced configurations: ktraced agents drain and ship records
	// alongside the profile pipeline, under one policy per row.
	runTraced := func(name string, rate float64, adaptive bool, tcfg *tracepipe.Config) {
		opts := fullOpts
		opts.Trace = tcfg
		trace := RunChibaLive(traced, opts)
		var wire uint64
		for _, n := range trace.LiveNodes {
			wire += n.WireBytes
		}
		store := trace.Trace.Store()
		for _, s := range store.Stats() {
			wire += s.WireBytes
		}
		recs, _ := store.Totals()
		res.Rows = append(res.Rows, TraceOverheadRow{
			Config: name, Rate: rate, Adaptive: adaptive, Exec: trace.Exec,
			Records: recs, SampledOut: store.SampledOut(), WireBytes: wire,
		})
	}

	runTraced("Profile+Trace", 1, false, fullOpts.Trace)
	for _, rate := range []float64{0.25, 0.05} {
		// Fixed-rate rows isolate the sampling effect: throttling disabled
		// (MaxLevel -1), no focus loop.
		cfg := *fullOpts.Trace
		cfg.Adaptive = &tracepipe.Adaptive{
			Base:     tracepipe.Policy{Groups: ktau.GroupAll, Rate: rate},
			MaxLevel: -1,
		}
		runTraced(fmt.Sprintf("Profile+Trace(r=%g)", rate), rate, false, &cfg)
	}
	runTraced("Profile+Trace(adaptive)", 0.05, true, AdaptiveTraceConfig(0.05))

	baseExec := res.Rows[0].Exec.Seconds()
	for i := range res.Rows {
		p := analysis.PercentDiff(res.Rows[i].Exec.Seconds(), baseExec)
		if p < 0 {
			p = 0
		}
		res.Rows[i].SlowPct = p
	}
	return res
}

// Render prints the overhead table.
func (t *TraceOverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Trace pipeline perturbation sweep, NPB LU (%d ranks)\n", t.Ranks)
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rate := "-"
		if r.Rate > 0 {
			rate = fmt.Sprintf("%g", r.Rate)
		}
		rows = append(rows, []string{
			r.Config,
			rate,
			fmt.Sprintf("%.3f", r.Exec.Seconds()),
			fmt.Sprintf("%.2f%%", r.SlowPct),
			fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%d", r.SampledOut),
			fmt.Sprintf("%d", r.WireBytes),
		})
	}
	analysis.Table(w, []string{
		"Config", "Rate", "Exec (s)", "%Slowdown", "TraceRecs", "SampledOut", "WireBytes",
	}, rows)
}
