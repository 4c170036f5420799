package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ktau/internal/tracepipe"
	"ktau/internal/workload"
)

// runLiveChiba runs one LiveChiba configuration at its default topology
// and execution mode.
func runLiveChiba(t *testing.T, ranks int, seed uint64, faults, trace string, rate float64) *LiveResult {
	t.Helper()
	spec, opts, err := LiveChiba(ranks, seed, faults, trace, rate)
	if err != nil {
		t.Fatal(err)
	}
	return RunChibaLive(spec, opts)
}

// TestClusterTraceSmoke is the acceptance check for the traced cluster run:
// a fault-injected, live-monitored Chiba job must emit a merged cluster
// trace that parses as JSON, spans both layers, and contains correlated MPI
// flow events plus per-node self-metrics.
func TestClusterTraceSmoke(t *testing.T) {
	live := runLiveChiba(t, 8, 42, "degraded", "full", 0)
	if !live.Completed {
		t.Fatal("job did not complete")
	}
	if !live.TraceDrained {
		t.Fatal("trace pipeline did not drain")
	}
	store := live.Trace.Store()
	if recs, _ := store.Totals(); recs == 0 {
		t.Fatal("no trace records collected")
	}
	if len(store.Flows()) == 0 {
		t.Fatal("no correlated MPI flows")
	}
	stats := store.Stats()
	if len(stats) != 8 {
		t.Fatalf("stats for %d nodes, want 8", len(stats))
	}
	kernSeen, userSeen := false, false
	for _, s := range stats {
		if s.KernRecords > 0 {
			kernSeen = true
		}
		if s.UserRecords > 0 {
			userSeen = true
		}
	}
	if !kernSeen || !userSeen {
		t.Fatalf("missing layer in collection: kernel=%v user=%v", kernSeen, userSeen)
	}

	var buf bytes.Buffer
	if err := store.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("cluster trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("no flow events in the cluster trace: %v", phases)
	}
	if phases["B"] == 0 || phases["E"] == 0 {
		t.Fatalf("no spans in the cluster trace: %v", phases)
	}

	// Renders must not panic and must mention the flows.
	var render bytes.Buffer
	live.RenderTrace(&render)
	if !bytes.Contains(render.Bytes(), []byte(fmt.Sprintf("%d correlated flows", len(store.Flows())))) {
		t.Fatalf("trace render does not report the flows:\n%s", render.String())
	}
}

// traceFingerprint executes the traced run under DegradedPlan in the given
// trace mode (adaptive at rate 0.25) on the given topology and worker
// count (0 = serial), and fingerprints every byte an observer could extract
// from the trace side: the merged Chrome trace, the Prometheus and
// JSON-lines self-metric exports, and the pipeline bookkeeping.
func traceFingerprint(t *testing.T, trace string, racks, workers int) string {
	t.Helper()
	spec, opts, err := LiveChiba(8, 42, "degraded", trace, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	spec.Racks = racks
	spec.Parallel = workers > 0
	spec.Workers = workers
	live := RunChibaLive(spec, opts)
	store := live.Trace.Store()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%v drained=%v tdrained=%v collector=%d tcollector=%d failovers=%d\n",
		live.Completed, live.Drained, live.TraceDrained,
		live.Collector, live.Trace.CollectorNode(), live.Trace.Failovers())
	if err := store.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkTraceParallelMatchesSerial runs one trace mode serially and on
// several workers, on the flat topology (the single-group runner) and a
// racked one (the pipeline across partitioned groups), and fails at the
// first line where a parallel fingerprint leaves the serial one.
func checkTraceParallelMatchesSerial(t *testing.T, trace string) {
	cases := []struct {
		racks   int
		workers []int
	}{
		{0, []int{4}},
		{4, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		serial := traceFingerprint(t, trace, tc.racks, 0)
		for _, w := range tc.workers {
			parallel := traceFingerprint(t, trace, tc.racks, w)
			if serial == parallel {
				continue
			}
			a, b := bytes.Split([]byte(serial), []byte("\n")), bytes.Split([]byte(parallel), []byte("\n"))
			for i := 0; i < len(a) && i < len(b); i++ {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("racks=%d workers=%d %s trace diverged from serial at line %d:\nserial:   %.200s\nparallel: %.200s",
						tc.racks, w, trace, i+1, a[i], b[i])
				}
			}
			t.Fatalf("racks=%d workers=%d %s trace diverged from serial: lengths %d vs %d lines",
				tc.racks, w, trace, len(a), len(b))
		}
	}
}

// TestClusterTraceParallelMatchesSerial is the tentpole determinism check:
// the same seed run serially and on several workers — with faults injected
// and both pipelines shipping frames across nodes — must produce a
// byte-identical merged cluster trace and byte-identical self-metrics.
func TestClusterTraceParallelMatchesSerial(t *testing.T) {
	checkTraceParallelMatchesSerial(t, "full")
}

// TestAdaptiveTraceParallelMatchesSerial extends the determinism guarantee
// to the adaptive pipeline: sampling draws, throttle transitions (tight
// thresholds, so the fault plan drives the state machine) and focus policy
// pushes are all functions of simulated state, so the same seed must
// produce a byte-identical merged trace at any worker count — on the flat
// topology and with the partitioned runner active.
func TestAdaptiveTraceParallelMatchesSerial(t *testing.T) {
	checkTraceParallelMatchesSerial(t, "adaptive")
}

// TestAdaptiveClusterTrace checks the adaptive run end to end: sampling
// actually discards records, the tightened thresholds drive the throttle,
// and flow correlation survives (messages are never sampled).
func TestAdaptiveClusterTrace(t *testing.T) {
	full := runLiveChiba(t, 8, 42, "degraded", "full", 0)
	res := runLiveChiba(t, 8, 42, "degraded", "adaptive", 0.25)
	if !res.Completed || !res.TraceDrained {
		t.Fatal("adaptive run did not complete and drain")
	}
	store := res.Trace.Store()
	fullRecs, fullMsgs := full.Trace.Store().Totals()
	recs, msgs := store.Totals()
	if store.SampledOut() == 0 {
		t.Fatal("sampling at rate 0.25 discarded nothing")
	}
	if recs == 0 || recs >= fullRecs {
		t.Fatalf("adaptive records = %d, want 0 < n < full %d", recs, fullRecs)
	}
	if msgs != fullMsgs {
		t.Fatalf("msg events = %d, want %d (messages must never be sampled)", msgs, fullMsgs)
	}
	if len(store.Flows()) == 0 {
		t.Fatal("no correlated flows in the adaptive trace")
	}
	var thr uint32
	for _, s := range store.Stats() {
		if s.ThrottlePeak > thr {
			thr = s.ThrottlePeak
		}
	}
	if thr == 0 {
		t.Fatal("tightened thresholds never engaged the throttle")
	}
}

// traceDetection pairs the profile-side detector verdict with the
// trace-side evidence for one collection configuration.
type traceDetection struct {
	// flagged is the perfmon OS-noise detector's output (node names).
	flagged []string
	// sched counts scheduling records ("schedule", "schedule_vol") per node
	// in the collected trace; top is the node with the most (-1 when the
	// trace is empty).
	sched []uint64
	top   int
	// records / sampledOut total the collector's ingest accounting.
	records, sampledOut uint64
}

// runTraceDetection plants the §5.1 OS-noise daemon on one node of a
// monitored, traced, fault-free Chiba run and reports how both views see it
// under the given trace configuration (nil = full tracing).
func runTraceDetection(t *testing.T, ranks int, seed uint64, noisy int, tcfg *tracepipe.Config) *traceDetection {
	t.Helper()
	spec, opts, err := LiveChiba(ranks, seed, "none", "full", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tcfg != nil {
		opts.Trace = tcfg
	}
	opts.NoisyNodes = []int{noisy}
	// The §5.1 anomaly, compressed so several bursts land within the short
	// run (same timing the live-detector tests use).
	opts.Noisy = workload.DaemonSpec{
		Name: "overhead", Period: 50 * time.Millisecond, Busy: 25 * time.Millisecond,
	}
	live := RunChibaLive(spec, opts)
	store := live.Trace.Store()
	out := &traceDetection{
		flagged:    live.Noise.Flagged,
		sched:      store.NodeEventCounts("schedule", "schedule_vol"),
		top:        -1,
		sampledOut: store.SampledOut(),
	}
	out.records, _ = store.Totals()
	var best uint64
	for i, n := range out.sched {
		if n > best {
			best, out.top = n, i
		}
	}
	return out
}

// TestTraceDetectionUnderSampling is the detection-quality check the
// adaptive design must not break: with the §5.1 daemon planted on one node,
// the online detector must flag it under full AND adaptive collection, and
// under adaptive collection the focus loop must make the flagged node the
// top scheduling-record node in the trace itself — sampling sharpens the
// evidence instead of washing it out.
func TestTraceDetectionUnderSampling(t *testing.T) {
	const noisy = 2
	full := runTraceDetection(t, 16, 1, noisy, nil)
	adap := runTraceDetection(t, 16, 1, noisy, AdaptiveTraceConfig(0.05))
	name := fmt.Sprintf("ccn%d", noisy)

	flagged := func(r *traceDetection) bool {
		for _, n := range r.flagged {
			if n == name {
				return true
			}
		}
		return false
	}
	if !flagged(full) {
		t.Fatalf("full trace: detector missed %s: flagged=%v", name, full.flagged)
	}
	if !flagged(adap) {
		t.Fatalf("adaptive trace: detector missed %s: flagged=%v", name, adap.flagged)
	}
	if adap.top != noisy {
		t.Fatalf("adaptive trace does not finger %s: top=%d sched=%v",
			name, adap.top, adap.sched)
	}
	if adap.sampledOut == 0 {
		t.Fatal("adaptive detection run sampled nothing out")
	}
	if adap.records >= full.records {
		t.Fatalf("adaptive collected %d records, not fewer than full %d", adap.records, full.records)
	}
}

// TestTraceOverhead pins the perturbation study: the overhead sweep must
// carry the six collection configurations, the sampled rows must account
// for their losses, and the adaptive configuration must not cost more than
// full tracing.
func TestTraceOverhead(t *testing.T) {
	res := RunTraceOverhead(8, 7, false, 0)
	want := []string{
		"Off", "Profile", "Profile+Trace",
		"Profile+Trace(r=0.25)", "Profile+Trace(r=0.05)", "Profile+Trace(adaptive)",
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i].Config != w {
			t.Fatalf("row %d = %q, want %q", i, res.Rows[i].Config, w)
		}
	}
	if res.Rows[0].SlowPct != 0 {
		t.Fatalf("baseline slowdown = %v, want 0", res.Rows[0].SlowPct)
	}
	full, adaptive := res.Row("Profile+Trace"), res.Row("Profile+Trace(adaptive)")
	if full == nil || adaptive == nil {
		t.Fatal("Row lookup failed")
	}
	if full.Records == 0 {
		t.Fatal("full trace row collected no records")
	}
	if full.SampledOut != 0 {
		t.Fatalf("full trace row sampled %d records out, want 0", full.SampledOut)
	}
	if !adaptive.Adaptive || adaptive.Rate != 0.05 {
		t.Fatalf("adaptive row misconfigured: %+v", adaptive)
	}
	if adaptive.SampledOut == 0 {
		t.Fatal("adaptive row sampled nothing out")
	}
	if adaptive.Records == 0 || adaptive.Records >= full.Records {
		t.Fatalf("adaptive records = %d, want 0 < n < full %d", adaptive.Records, full.Records)
	}
	if adaptive.SlowPct > full.SlowPct {
		t.Fatalf("adaptive slowdown %.2f%% exceeds full trace %.2f%%", adaptive.SlowPct, full.SlowPct)
	}
	for _, r := range res.Rows {
		if r.Exec <= 0 {
			t.Fatalf("row %s has non-positive exec time", r.Config)
		}
		if r.SlowPct < 0 {
			t.Fatalf("row %s slowdown negative (must be clamped)", r.Config)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
