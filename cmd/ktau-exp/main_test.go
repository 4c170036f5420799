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
