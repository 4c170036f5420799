package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"ktau/internal/cluster"
	"ktau/internal/experiments"
	"ktau/internal/perfmon"
	"ktau/internal/procfs"
	"ktau/internal/tracepipe"
)

// Built-in specs. "chiba" is the grid workhorse — one live-monitored Chiba
// run parameterised by every sweep axis; ktau-exp's trace experiment is a
// chiba cell under the degraded plan. The rest fold the ad-hoc ktau-exp
// entry points (faults / serve / traceov) into the harness so those
// commands become thin wrappers and their outputs gain cell metrics and
// fingerprints for free.
func init() {
	Register("chiba", chibaCell)
	Register("faults", faultsCell)
	Register("serve", serveCell)
	Register("traceov", traceovCell)
}

// chibaCell runs one experiments.LiveChiba job under the cell's fault plan
// and trace mode. Its fingerprints are exactly the byte streams the repo's
// determinism tests compare, so cells differing only in execution mode
// (serial vs parallel) must carry identical digests — the baseline gate
// turns that invariant into a standing check.
func chibaCell(ctx context.Context, p Params) *CellResult {
	ranks := p.Ranks
	if ranks <= 0 {
		ranks = 8
	}
	spec, opts, err := experiments.LiveChiba(ranks, p.Seed, p.Faults, p.Trace, p.Rate)
	if err != nil {
		return &CellResult{Status: StatusError, Err: err.Error()}
	}
	spec.Racks = p.Racks
	spec.Parallel = p.Parallel
	spec.Workers = p.Workers

	// Packed /proc/ktau profiles are only reachable while the cluster is
	// alive; the Observe hook runs before shutdown.
	var profileFP string
	opts.Observe = func(c *cluster.Cluster, _ *experiments.LiveResult) {
		f := newFingerprinter()
		for _, n := range c.Nodes {
			size, err := n.FS.ProfileSize(procfs.PIDAll)
			if err != nil {
				f.printf("%s: profile error %v\n", n.Name, err)
				continue
			}
			blob := make([]byte, size)
			nr, rerr := n.FS.ProfileRead(procfs.PIDAll, blob)
			f.printf("%s: %d profile bytes err=%v\n", n.Name, nr, rerr)
			f.Write(blob[:nr])
		}
		profileFP = f.sum()
	}

	live := experiments.RunChibaLive(spec, opts)

	metrics := map[string]float64{
		"completed": b2f(live.Completed),
		"drained":   b2f(live.Drained),
		"exec_s":    live.Exec.Seconds(),
		"frames":    float64(live.Store.Frames()),
		"drops":     float64(live.Store.Drops()),
		"failovers": float64(live.Failovers),
		"collector": float64(live.Collector),
	}
	var missed, gaps, down int
	for _, info := range live.Store.Nodes() {
		missed += info.Missed
		gaps += info.Gaps
		if info.Down {
			down++
		}
	}
	metrics["missed"] = float64(missed)
	metrics["gaps"] = float64(gaps)
	metrics["down_nodes"] = float64(down)
	if inj := live.Injector; inj != nil {
		metrics["fault_losses"] = float64(inj.Stats.Losses)
		metrics["fault_delays"] = float64(inj.Stats.Delays)
		metrics["fault_partitioned"] = float64(inj.Stats.Partitioned)
		metrics["fault_slowdowns"] = float64(inj.Stats.Slowdowns)
		metrics["fault_stalls"] = float64(inj.Stats.Stalls)
		metrics["fault_procfs_errors"] = float64(inj.Stats.ProcfsErrors)
		metrics["fault_crashes"] = float64(inj.Stats.Crashes)
	}

	fps := map[string]string{
		"profile": profileFP,
		"store":   perfmonStoreDigest(live.Store),
	}
	if live.Trace != nil {
		st := live.Trace.Store()
		recs, msgs := st.Totals()
		metrics["trace_records"] = float64(recs)
		metrics["trace_msg_events"] = float64(msgs)
		metrics["trace_flows"] = float64(len(st.Flows()))
		metrics["trace_sampled_out"] = float64(st.SampledOut())
		metrics["trace_drained"] = b2f(live.TraceDrained)
		fps["trace"] = traceStoreDigest(st)
	}

	var text bytes.Buffer
	fmt.Fprintf(&text, "chiba cell %s: completed=%v exec=%.3fs frames=%d drops=%d failovers=%d\n",
		p.Name(), live.Completed, live.Exec.Seconds(), live.Store.Frames(),
		live.Store.Drops(), live.Failovers)
	live.RenderTrace(&text)

	return &CellResult{Metrics: metrics, Fingerprints: fps, Text: text.String(), Raw: live}
}

// unreadAxis returns an error cell naming the first of the given axes that
// p sets away from its neutral value (a flat network, no faults, no trace,
// no rate), or nil. A spec passes the axes it does not read: it must not
// report a cell named for a configuration it did not run.
func unreadAxis(p Params, axes ...string) *CellResult {
	set := map[string]any{}
	if p.Racks > 1 {
		set["racks"] = p.Racks
	}
	if p.Faults != "" && p.Faults != "none" {
		set["faults"] = p.Faults
	}
	if p.Trace != "" && p.Trace != "off" {
		set["trace"] = p.Trace
	}
	if p.Rate != 0 {
		set["rate"] = p.Rate
	}
	for _, name := range axes {
		if v, ok := set[name]; ok {
			return &CellResult{Status: StatusError,
				Err: fmt.Sprintf("%s spec does not read the %s axis (set to %v)", p.Exp, name, v)}
		}
	}
	return nil
}

// perfmonStoreDigest fingerprints a perfmon collector store.
func perfmonStoreDigest(st *perfmon.Store) string {
	f := newFingerprinter()
	f.mustExport("prometheus", st.WritePrometheus)
	f.mustExport("jsonlines", func(w io.Writer) error { return st.WriteJSONLines(w, 0) })
	return f.sum()
}

// traceStoreDigest fingerprints a trace collector: the merged Chrome trace
// plus both self-metric exports.
func traceStoreDigest(st *tracepipe.Collector) string {
	f := newFingerprinter()
	f.mustExport("chrometrace", st.WriteChromeTrace)
	f.mustExport("prometheus", st.WritePrometheus)
	f.mustExport("jsonlines", st.WriteJSONLines)
	return f.sum()
}

// faultsCell wraps the "Chiba with faults" study (clean / degraded /
// collector-crash), fingerprinting all three collector stores. The study
// runs its own three plans on a flat network, untraced.
func faultsCell(ctx context.Context, p Params) *CellResult {
	if bad := unreadAxis(p, "racks", "faults", "trace", "rate"); bad != nil {
		return bad
	}
	res := experiments.RunFaultStudy(p.Ranks, p.Seed)
	metrics := map[string]float64{
		"clean_exec_s":        res.Clean.Exec.Seconds(),
		"degraded_exec_s":     res.Degraded.Exec.Seconds(),
		"crash_exec_s":        res.Crash.Exec.Seconds(),
		"degraded_slowdown_x": res.Degraded.Exec.Seconds() / res.Clean.Exec.Seconds(),
		"clean_completed":     b2f(res.Clean.Completed),
		"degraded_completed":  b2f(res.Degraded.Completed),
		"crash_failovers":     float64(res.Crash.Failovers),
	}
	var down int
	for _, nn := range res.Crash.Noise.Nodes {
		if nn.Down {
			down++
		}
	}
	metrics["crash_down_nodes"] = float64(down)
	fps := map[string]string{
		"store_clean":    perfmonStoreDigest(res.Clean.Store),
		"store_degraded": perfmonStoreDigest(res.Degraded.Store),
		"store_crash":    perfmonStoreDigest(res.Crash.Store),
	}
	var text bytes.Buffer
	res.Render(&text)
	return &CellResult{Metrics: metrics, Fingerprints: fps, Text: text.String(), Raw: res}
}

// serveCell wraps the multi-tenant serving scenario, fingerprinting the
// merged latency-histogram store (AppendBinary) and the kernel view. The
// scenario runs no trace pipeline.
func serveCell(ctx context.Context, p Params) *CellResult {
	if bad := unreadAxis(p, "trace", "rate"); bad != nil {
		return bad
	}
	spec := experiments.DefaultServe(p.Ranks)
	spec.Seed = p.Seed
	spec.Racks = p.Racks
	spec.Parallel = p.Parallel
	spec.Workers = p.Workers
	switch p.Faults {
	case "", "none":
	case "degraded":
		plan := experiments.DegradedPlan(spec.Nodes, p.Seed)
		spec.Faults = &plan
	default:
		return &CellResult{Status: StatusError,
			Err: fmt.Sprintf("serve spec: unknown fault plan %q (none|degraded)", p.Faults)}
	}
	res := experiments.RunServe(spec)

	metrics := map[string]float64{
		"completed":      b2f(res.Completed),
		"drained":        b2f(res.Drained),
		"failovers":      float64(res.Failovers),
		"leaked_conns":   float64(res.LeakedConns),
		"rogue_fingered": b2f(res.RogueFingered),
	}
	var ok uint64
	for _, ts := range res.Tenants {
		ok += ts.OK
		pre := "t_" + ts.Name + "_"
		metrics[pre+"arrived"] = float64(ts.Arrived)
		metrics[pre+"ok"] = float64(ts.OK)
		metrics[pre+"drops"] = float64(ts.Drops)
		metrics[pre+"lost"] = float64(ts.Lost)
		metrics[pre+"p50_us"] = float64(ts.P50) / 1e3
		metrics[pre+"p99_us"] = float64(ts.P99) / 1e3
		metrics[pre+"p999_us"] = float64(ts.P999) / 1e3
	}
	metrics["req_per_s"] = float64(ok) / spec.Serve.Duration.Seconds()

	histFP := newFingerprinter()
	histFP.Write(res.Stats.AppendBinary(nil))
	fps := map[string]string{
		"hist":  histFP.sum(),
		"store": perfmonStoreDigest(res.Store),
	}
	var text bytes.Buffer
	res.Render(&text)
	return &CellResult{Metrics: metrics, Fingerprints: fps, Text: text.String(), Raw: res}
}

// traceovCell wraps the six-configuration trace-overhead sweep. Its three
// headline slowdowns are what the perturb grid's budgets gate; the rows
// fingerprint covers every configuration's rendered row, which pins each
// slowdown to two decimals. The study picks its own trace configurations
// and runs them fault-free on a flat network.
func traceovCell(ctx context.Context, p Params) *CellResult {
	if bad := unreadAxis(p, "racks", "faults", "trace", "rate"); bad != nil {
		return bad
	}
	res := experiments.RunTraceOverhead(p.Ranks, p.Seed)
	metrics := map[string]float64{}
	for _, row := range res.Rows {
		switch row.Config {
		case "Profile":
			metrics["profile_slowdown_pct"] = row.SlowPct
		case "Profile+Trace":
			metrics["full_trace_slowdown_pct"] = row.SlowPct
			metrics["full_trace_records"] = float64(row.Records)
		case "Profile+Trace(adaptive)":
			metrics["adaptive_slowdown_pct"] = row.SlowPct
			metrics["adaptive_records"] = float64(row.Records)
			metrics["adaptive_sampled_out"] = float64(row.SampledOut)
		}
	}
	var text bytes.Buffer
	res.Render(&text)
	rowsFP := newFingerprinter()
	rowsFP.Write(text.Bytes())
	fps := map[string]string{"rows": rowsFP.sum()}
	return &CellResult{Metrics: metrics, Fingerprints: fps, Text: text.String(), Raw: res}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
