package main

import (
	"math"
	"strings"
	"testing"
)

// TestSelectTraceMode pins the -trace-rate / -trace-adaptive mapping. Rates
// outside (0, 1] were once accepted and run silently: 0 and -1 at the
// default adaptive rate, 5 and NaN as full tracing.
func TestSelectTraceMode(t *testing.T) {
	good := []struct {
		adaptive bool
		rate     float64
		want     string
	}{
		{false, 1, "full"},
		{false, 0.25, "adaptive"},
		{false, 0.05, "adaptive"},
		{true, 1, "adaptive"},
		{true, 0.25, "adaptive"},
	}
	for _, tc := range good {
		got, err := selectTraceMode(tc.adaptive, tc.rate)
		if err != nil || got != tc.want {
			t.Errorf("selectTraceMode(%v, %v) = %q, %v; want %q", tc.adaptive, tc.rate, got, err, tc.want)
		}
	}
	for _, rate := range []float64{0, -1, 5, 1.0000001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, adaptive := range []bool{false, true} {
			mode, err := selectTraceMode(adaptive, rate)
			if err == nil || !strings.Contains(err.Error(), "-trace-rate") {
				t.Errorf("selectTraceMode(%v, %v) = %q, %v; want a -trace-rate error", adaptive, rate, mode, err)
			}
		}
	}
}

// TestCheckTraceFlags pins the refusal of the trace flags on a run without
// the trace experiment: "-exp table4 -trace-out x.json" once exited 0 and
// wrote no file.
func TestCheckTraceFlags(t *testing.T) {
	for _, name := range []string{"trace-out", "trace-adaptive", "trace-rate"} {
		set := map[string]bool{name: true, "ranks": true}
		for _, ids := range [][]string{{"table4"}, {"faults"}, {"traceov"}, {"serve"}} {
			err := checkTraceFlags(ids, set)
			if err == nil || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("checkTraceFlags(%v, -%s) = %v; want an error naming -%s", ids, name, err, name)
			}
		}
		for _, ids := range [][]string{{"trace"}, experimentOrder} {
			if err := checkTraceFlags(ids, set); err != nil {
				t.Errorf("checkTraceFlags(%v, -%s) = %v; want nil", ids, name, err)
			}
		}
	}
	if err := checkTraceFlags([]string{"table4"}, map[string]bool{"ranks": true, "racks": true}); err != nil {
		t.Errorf("checkTraceFlags without trace flags = %v; want nil", err)
	}
}

// TestFlagsFor pins which ids take -racks and which note an explicitly set
// -ranks or -racks they do not read. Only trace and serve take a rack
// topology; the other cell-backed ids once got -racks passed to specs that
// ran a flat network.
func TestFlagsFor(t *testing.T) {
	both := map[string]bool{"ranks": true, "racks": true}
	for _, id := range experimentOrder {
		readsRacks, wantRacks := id == "trace" || id == "serve", 0
		if readsRacks {
			wantRacks = 4
		}
		racks, notes := flagsFor(id, both, 8, 4)
		joined := strings.Join(notes, "\n")
		if racks != wantRacks {
			t.Errorf("%s: runs with %d racks, want %d", id, racks, wantRacks)
		}
		if got := strings.Contains(joined, "-racks 4 ignored"); got == readsRacks {
			t.Errorf("%s: notes %q; -racks note %v, want %v", id, joined, got, !readsRacks)
		}
		if got, want := strings.Contains(joined, "-ranks 8 ignored"), fixedScale[id]; got != want {
			t.Errorf("%s: notes %q; -ranks note %v, want %v", id, joined, got, want)
		}
		if _, notes := flagsFor(id, map[string]bool{"exp": true}, 8, 4); len(notes) != 0 {
			t.Errorf("%s: notes %q without -ranks or -racks; want none", id, notes)
		}
	}
}

// TestCheckTrace covers the streaming -trace-out check: it accepts a JSON
// array of events holding a flow start and counts both, and rejects
// everything that is not exactly that.
func TestCheckTrace(t *testing.T) {
	const ok = `[{"ph":"B","name":"a"},{"ph":"s","id":1},null,{"ph":"f","id":1,"args":{"x":[1,2]}}]` + "\n"
	events, flows, err := checkTrace(strings.NewReader(ok))
	if err != nil || events != 4 || flows != 1 {
		t.Fatalf("checkTrace(valid) = %d events, %d flows, %v; want 4, 1, nil", events, flows, err)
	}
	bad := map[string]string{
		"empty":             ``,
		"object":            `{"ph":"s"}`,
		"null":              `null`,
		"scalar element":    `[{"ph":"s"},1]`,
		"string element":    `["s"]`,
		"malformed element": `[{"ph":"s"},{"ph":}]`,
		"missing comma":     `[{"ph":"s"} {"ph":"s"}]`,
		"trailing comma":    `[{"ph":"s"},]`,
		"unterminated":      `[{"ph":"s"}`,
		"data after":        `[{"ph":"s"}] x`,
		"second array":      `[{"ph":"s"}][]`,
		"no flow":           `[{"ph":"B"},{"ph":"E"}]`,
		"empty array":       `[]`,
		"flow key case":     `[{"PH":"s"}]`,
		"flow not string":   `[{"ph":["s"]}]`,
	}
	for name, in := range bad {
		if events, flows, err := checkTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: checkTrace(%q) = %d events, %d flows, nil; want an error", name, in, events, flows)
		}
	}
}
