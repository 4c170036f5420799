package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"ktau/internal/experiments"
	"ktau/internal/perfmon"
	"ktau/internal/tracepipe"
)

// expectedJSON maps workload name to seed to the output digest of the
// experiments path, recorded with this benchmark.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// The digests cover every simulated output a workload produces. Values are
// rendered with %+v, which prints map keys sorted, so equal results give
// equal bytes. Host execution settings (Parallel, Workers) are cleared
// first: they never change what is simulated.

func writeChiba(h hash.Hash, res *experiments.ChibaResult) {
	spec := res.Spec
	spec.Parallel, spec.Workers = false, 0
	fmt.Fprintf(h, "chiba %+v\nexec=%d completed=%v\n", spec, res.Exec, res.Completed)
	for _, rk := range res.Ranks {
		fmt.Fprintf(h, "%+v\n", rk)
	}
	for _, n := range res.Nodes {
		fmt.Fprintf(h, "%+v\n", n)
	}
}

func writePerfmon(h hash.Hash, st *perfmon.Store) error {
	io.WriteString(h, "perfmon prometheus\n")
	if err := st.WritePrometheus(h); err != nil {
		return fmt.Errorf("perfmon prometheus: %w", err)
	}
	io.WriteString(h, "perfmon jsonlines\n")
	if err := st.WriteJSONLines(h, 0); err != nil {
		return fmt.Errorf("perfmon jsonlines: %w", err)
	}
	return nil
}

func writeTrace(h hash.Hash, col *tracepipe.Collector) error {
	io.WriteString(h, "trace chrome\n")
	if err := col.WriteChromeTrace(h); err != nil {
		return fmt.Errorf("trace chrome: %w", err)
	}
	io.WriteString(h, "trace prometheus\n")
	if err := col.WritePrometheus(h); err != nil {
		return fmt.Errorf("trace prometheus: %w", err)
	}
	io.WriteString(h, "trace jsonlines\n")
	if err := col.WriteJSONLines(h); err != nil {
		return fmt.Errorf("trace jsonlines: %w", err)
	}
	return nil
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func chibaDigest(res *experiments.ChibaResult) (string, error) {
	h := sha256.New()
	writeChiba(h, res)
	return sum(h), nil
}

// liveDigest digests a live-monitored, traced Chiba run: the offline
// harvest, the detector report, and both collectors' exports.
func liveDigest(l *experiments.LiveResult, tr *tracer) (string, error) {
	tr.begin("bench.digest")
	defer tr.end()
	h := sha256.New()
	writeChiba(h, l.ChibaResult)
	fmt.Fprintf(h, "noise %+v\ncollector=%d failovers=%d drained=%v trace_drained=%v\n",
		l.Noise, l.Collector, l.Failovers, l.Drained, l.TraceDrained)
	if l.Injector != nil {
		fmt.Fprintf(h, "faults %+v\n", l.Injector.Stats)
	}
	tr.begin("perfmon.export")
	err := writePerfmon(h, l.Store)
	tr.end()
	if err != nil {
		return "", err
	}
	if l.Trace == nil {
		return "", fmt.Errorf("live run has no trace pipeline")
	}
	fmt.Fprintf(h, "trace collector=%d failovers=%d\n", l.Trace.CollectorNode(), l.Trace.Failovers())
	tr.begin("tracepipe.export")
	err = writeTrace(h, l.Trace.Store())
	tr.end()
	if err != nil {
		return "", err
	}
	return sum(h), nil
}

// serveDigest digests a serving run: the merged latency store, the
// per-tenant counts, quantiles and attributions, and the perfmon exports.
func serveDigest(res *experiments.ServeResult, tr *tracer) (string, error) {
	tr.begin("bench.digest")
	defer tr.end()
	h := sha256.New()
	spec := res.Spec
	fmt.Fprintf(h, "serve nodes=%d seed=%d serve=%+v rogue=%d %+v\n",
		spec.Nodes, spec.Seed, spec.Serve, spec.RogueNode, spec.Rogue)
	fmt.Fprintf(h, "completed=%v drained=%v collector=%d failovers=%d leaked=%d hz=%d rogue_fingered=%v\n",
		res.Completed, res.Drained, res.Collector, res.Failovers, res.LeakedConns, res.HZ, res.RogueFingered)
	h.Write(res.Stats.AppendBinary(nil))
	for _, t := range res.Tenants {
		fmt.Fprintf(h, "\ntenant %+v", t)
	}
	io.WriteString(h, "\n")
	tr.begin("perfmon.export")
	err := writePerfmon(h, res.Store)
	tr.end()
	if err != nil {
		return "", err
	}
	return sum(h), nil
}
