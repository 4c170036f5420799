package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"ktau/internal/experiments"
)

// TestChibaCellDeterminism re-runs a real cell and demands byte-identical
// StableJSON — the property committed baselines depend on.
func TestChibaCellDeterminism(t *testing.T) {
	p := Params{Exp: "chiba", Ranks: 8, Faults: "degraded", Seed: 42}
	a := RunCell(context.Background(), p)
	b := RunCell(context.Background(), p)
	if a.Status != StatusOK {
		t.Fatalf("cell failed: %s %s", a.Status, a.Err)
	}
	ja, err := a.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same cell, different StableJSON:\n%s\nvs\n%s", ja, jb)
	}
	for _, key := range []string{"profile", "store"} {
		if a.Fingerprints[key] == "" {
			t.Errorf("fingerprint %q missing", key)
		}
	}
}

// TestSerialParallelFingerprints checks the crown-jewel invariant through
// the harness: cells differing only in execution mode carry identical
// fingerprints and metrics, and a concurrent sweep (Jobs > 1) reproduces a
// serial sweep's results exactly.
func TestSerialParallelFingerprints(t *testing.T) {
	grid := Grid{
		Name:    "modes",
		Exp:     "chiba",
		Ranks:   []int{8},
		Workers: []int{0, 4},
		Seeds:   []uint64{5},
	}
	serial, err := RunSweep(grid, SweepConfig{Timeout: time.Minute, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunSweep(grid, SweepConfig{Timeout: time.Minute, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != 2 || len(conc.Cells) != 2 {
		t.Fatalf("expected 2 cells per sweep, got %d and %d", len(serial.Cells), len(conc.Cells))
	}
	for _, res := range []*SweepResult{serial, conc} {
		for _, c := range res.Cells {
			if c.Status != StatusOK {
				t.Fatalf("cell %s failed: %s %s", c.Name, c.Status, c.Err)
			}
		}
	}
	// Serial cell vs parallel cell within one sweep: identical digests.
	s, p := serial.Cells[0], serial.Cells[1]
	for key, want := range s.Fingerprints {
		if got := p.Fingerprints[key]; got != want {
			t.Errorf("fingerprint %q differs between serial and parallel cells:\n%s\nvs\n%s",
				key, want, got)
		}
	}
	// Jobs=1 vs Jobs=2 sweeps: identical StableJSON per position.
	for i := range serial.Cells {
		ja, err := serial.Cells[i].StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := conc.Cells[i].StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Errorf("cell %d differs between Jobs=1 and Jobs=2 sweeps:\n%s\nvs\n%s", i, ja, jb)
		}
	}
}

// TestFaultsCellRunsOnItsWorkers: a faults cell at 2 workers runs its
// three studies partitioned, as its name says (the studies' specs carry
// the cell's Parallel and Workers, not the process-wide default), and
// carries the serial cell's fingerprints.
func TestFaultsCellRunsOnItsWorkers(t *testing.T) {
	serial := RunCell(context.Background(), Params{Exp: "faults", Ranks: 8, Seed: 3})
	par := RunCell(context.Background(), Params{Exp: "faults", Ranks: 8, Seed: 3, Parallel: true, Workers: 2})
	for _, c := range []*CellResult{serial, par} {
		if c.Status != StatusOK {
			t.Fatalf("cell %s failed: %s %s", c.Params.Name(), c.Status, c.Err)
		}
	}
	study := par.Raw.(*experiments.FaultStudy)
	for name, r := range map[string]*experiments.LiveResult{"clean": study.Clean, "degraded": study.Degraded, "crash": study.Crash} {
		if !r.Spec.Parallel || r.Spec.Workers != 2 {
			t.Errorf("%s run of %s: Parallel=%v Workers=%d, want a partitioned run at 2 workers",
				name, par.Params.Name(), r.Spec.Parallel, r.Spec.Workers)
		}
	}
	if len(serial.Fingerprints) == 0 {
		t.Fatal("serial faults cell carries no fingerprints")
	}
	for key, want := range serial.Fingerprints {
		if got := par.Fingerprints[key]; got != want {
			t.Errorf("fingerprint %q differs between the serial and 2-worker cells:\n%s\nvs\n%s", key, want, got)
		}
	}
}

// TestChibaCellRejectsBadSettings: an unknown fault plan or trace mode, or
// an adaptive rate outside (0, 1], fails experiments.LiveChiba with an
// error naming the bad value, and a chiba cell naming it fails as an error
// cell before any simulation runs — no metrics, no fingerprints, no raw
// result.
func TestChibaCellRejectsBadSettings(t *testing.T) {
	cases := []struct {
		faults, trace string
		rate          float64
		bad           string
	}{
		{"flood", "full", 0, `"flood"`},
		{"none", "verbose", 0, `"verbose"`},
		{"", "adaptive:0.25", 0, `"adaptive:0.25"`},
		{"crash", "adaptive", 1.5, "1.5"},
		{"degraded", "adaptive", -0.5, "-0.5"},
		{"degraded", "adaptive", math.NaN(), "NaN"},
	}
	for _, tc := range cases {
		_, _, err := experiments.LiveChiba(8, 1, tc.faults, tc.trace, tc.rate)
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("LiveChiba(faults=%q, trace=%q, rate=%v) = %v, want an error naming %s",
				tc.faults, tc.trace, tc.rate, err, tc.bad)
		}
		p := Params{Exp: "chiba", Ranks: 8, Faults: tc.faults, Trace: tc.trace, Rate: tc.rate, Seed: 1}
		c := RunCell(context.Background(), p)
		if c.Status != StatusError || !strings.Contains(c.Err, tc.bad) {
			t.Errorf("%s: status %q err %q, want an error naming %s", c.Name, c.Status, c.Err, tc.bad)
		}
		if c.Raw != nil || len(c.Metrics) != 0 || len(c.Fingerprints) != 0 {
			t.Errorf("%s: a rejected cell carries results: raw=%T metrics=%d fingerprints=%d",
				c.Name, c.Raw, len(c.Metrics), len(c.Fingerprints))
		}
	}
}

// TestCellsRejectUnreadAxes: the faults and traceov studies run their own
// configurations on a flat network, and serve runs no trace pipeline, so a
// cell that sets an axis its spec does not read fails as an error cell
// naming that axis before any simulation runs. "-exp faults -racks 4
// -faults degraded -trace full" once reported an ok cell named for that
// configuration while it ran the flat three-plan study.
func TestCellsRejectUnreadAxes(t *testing.T) {
	cases := []struct {
		p           Params
		axis, value string
	}{
		{Params{Exp: "faults", Racks: 4, Faults: "degraded", Trace: "full"}, "racks", "4"},
		{Params{Exp: "faults", Faults: "degraded"}, "faults", "degraded"},
		{Params{Exp: "faults", Faults: "none", Trace: "full"}, "trace", "full"},
		{Params{Exp: "faults", Rate: 0.25}, "rate", "0.25"},
		{Params{Exp: "traceov", Racks: 2}, "racks", "2"},
		{Params{Exp: "traceov", Faults: "crash"}, "faults", "crash"},
		{Params{Exp: "traceov", Trace: "adaptive", Rate: 0.25}, "trace", "adaptive"},
		{Params{Exp: "traceov", Trace: "off", Rate: math.NaN()}, "rate", "NaN"},
		{Params{Exp: "serve", Racks: 4, Trace: "full"}, "trace", "full"},
		{Params{Exp: "serve", Faults: "degraded", Rate: 0.5}, "rate", "0.5"},
	}
	for _, tc := range cases {
		tc.p.Ranks, tc.p.Seed = 8, 1
		c := RunCell(context.Background(), tc.p)
		want := tc.p.Exp + " spec does not read the " + tc.axis + " axis (set to " + tc.value + ")"
		if c.Status != StatusError || c.Err != want {
			t.Errorf("%s: status %q err %q, want an error %q", c.Name, c.Status, c.Err, want)
		}
		if c.Raw != nil || len(c.Metrics) != 0 || len(c.Fingerprints) != 0 {
			t.Errorf("%s: a rejected cell carries results: raw=%T metrics=%d fingerprints=%d",
				c.Name, c.Raw, len(c.Metrics), len(c.Fingerprints))
		}
	}
}

// TestServeCellFailsAccounting: a serving run that breaks an accounting
// identity comes back as an error cell naming the first identity broken,
// with its metrics and fingerprints kept.
func TestServeCellFailsAccounting(t *testing.T) {
	spec := experiments.DefaultServe(8)
	spec.Serve.Duration = 200 * time.Millisecond
	res := experiments.RunServe(spec)
	if cell := serveResultCell(res); cell.Status != "" || cell.Err != "" {
		t.Fatalf("healthy run: status %q err %q", cell.Status, cell.Err)
	}
	res.LeakedConns = 3
	res.Tenants[0].OK--
	cell := serveResultCell(res)
	if cell.Status != StatusError || !strings.Contains(cell.Err, "3 connection endpoints leaked") {
		t.Fatalf("doctored run: status %q err %q, want an error naming the leak", cell.Status, cell.Err)
	}
	if cell.Fingerprints["hist"] == "" || cell.Metrics["leaked_conns"] != 3 {
		t.Errorf("error cell lost its fingerprints or metrics: %v %v", cell.Fingerprints, cell.Metrics)
	}
}
