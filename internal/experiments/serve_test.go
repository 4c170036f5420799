package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// smallServe shrinks the default scenario to test scale while keeping both
// tenants, the system daemons, and the planted rogue.
func smallServe(seed uint64) ServeSpec {
	spec := DefaultServe(8)
	spec.Seed = seed
	spec.Serve.Duration = 600 * time.Millisecond
	return spec
}

func TestServeAttributionFingersRogue(t *testing.T) {
	res := RunServe(smallServe(7))
	if !res.Completed {
		t.Fatal("fleet did not drain")
	}
	if !res.Drained {
		t.Error("monitoring pipeline did not drain")
	}
	if res.LeakedConns != 0 {
		t.Errorf("%d connection endpoints leaked", res.LeakedConns)
	}
	for _, ts := range res.Tenants {
		if ts.OK == 0 {
			t.Fatalf("tenant %s completed no requests", ts.Name)
		}
		if ts.Lost != 0 {
			t.Errorf("tenant %s lost %d replies without faults", ts.Name, ts.Lost)
		}
		if ts.Arrived != ts.OK+ts.Drops+ts.Lost {
			t.Errorf("tenant %s conservation broken: %d vs %d+%d+%d",
				ts.Name, ts.Arrived, ts.OK, ts.Drops, ts.Lost)
		}
		if ts.WorstNode < 0 {
			t.Fatalf("tenant %s has no worst tail node", ts.Name)
		}
		if ts.Attr.Windows == 0 || len(ts.Attr.Rounds) == 0 {
			t.Errorf("tenant %s attribution empty: %d windows, %d rounds",
				ts.Name, ts.Attr.Windows, len(ts.Attr.Rounds))
		}
	}
	if !res.RogueFingered {
		for _, ts := range res.Tenants {
			t.Logf("tenant %s: worst=ccn%d p999=%v attr=%s",
				ts.Name, ts.WorstNode, ts.WorstP999, ts.Attr.String())
		}
		t.Error("planted rogue daemon was not fingered")
	}

	var out strings.Builder
	res.Render(&out)
	for _, want := range []string{"tenant", "p999 spike", "api-batchd", "throughput"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
}

// serveFingerprint runs the fault-injected serving scenario and captures a
// byte-exact fingerprint of everything observable: the merged latency store,
// every node's packed /proc/ktau profile, and the collector store exports.
func serveFingerprint(t *testing.T, racks int, parallel bool, workers int) string {
	t.Helper()
	spec := smallServe(42)
	spec.Racks = racks
	spec.Parallel = parallel
	spec.Workers = workers
	plan := DegradedPlan(spec.Nodes, 42)
	spec.Faults = &plan

	res := RunServe(spec)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%v drained=%v collector=%d failovers=%d faults=%+v\n",
		res.Completed, res.Drained, res.Collector, res.Failovers, res.Injector.Stats)
	buf.WriteString(fmt.Sprintf("latency-store=%x\n", res.Stats.AppendBinary(nil)))
	for _, ts := range res.Tenants {
		fmt.Fprintf(&buf, "tenant=%s arr=%d ok=%d drops=%d lost=%d worst=%d attr=%s\n",
			ts.Name, ts.Arrived, ts.OK, ts.Drops, ts.Lost, ts.WorstNode, ts.Attr.String())
	}
	if err := res.Store.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.Store.WriteJSONLines(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeParallelMatchesSerialByteForByte: the serving workload, monitored
// and fault-injected, must produce byte-identical latency stores and kernel
// views whether node engines run serially or on several host CPUs — on the
// flat topology and on a racked one that partitions the runner.
func TestServeParallelMatchesSerialByteForByte(t *testing.T) {
	cases := []struct {
		racks   int
		workers []int
	}{
		{0, []int{4}},
		{4, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		serial := serveFingerprint(t, tc.racks, false, 0)
		for _, w := range tc.workers {
			parallel := serveFingerprint(t, tc.racks, true, w)
			if serial == parallel {
				continue
			}
			a, b := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("racks=%d workers=%d serve run diverged from serial at line %d:\nserial:   %.200s\nparallel: %.200s",
						tc.racks, w, i+1, a[i], b[i])
				}
			}
			t.Fatalf("racks=%d workers=%d serve run diverged from serial: lengths %d vs %d lines",
				tc.racks, w, len(a), len(b))
		}
	}
}

// TestServeCheck doctors a passing result one identity at a time; Check
// names the first identity broken.
func TestServeCheck(t *testing.T) {
	good := func() *ServeResult {
		return &ServeResult{Completed: true, Drained: true, Tenants: []TenantServe{
			{Name: "web", Arrived: 10, OK: 7, Drops: 2, Lost: 1},
			{Name: "api", Arrived: 5, OK: 5},
		}}
	}
	if err := good().Check(); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	cases := []struct {
		name   string
		doctor func(*ServeResult)
		want   string
	}{
		{"incomplete", func(r *ServeResult) { r.Completed = false }, "fleet did not complete"},
		{"undrained", func(r *ServeResult) { r.Drained = false }, "perfmon pipeline did not drain"},
		{"leaked", func(r *ServeResult) { r.LeakedConns = 2 }, "2 connection endpoints leaked"},
		{"unconserved", func(r *ServeResult) { r.Tenants[1].OK = 4 },
			"tenant api: arrived 5 != ok 4 + drops 0 + lost 0"},
		{"lost too many", func(r *ServeResult) { r.Tenants[0].Lost = 2 },
			"tenant web: arrived 10 != ok 7 + drops 2 + lost 2"},
		{"first named", func(r *ServeResult) { r.Drained = false; r.LeakedConns = 1; r.Tenants[0].OK = 0 },
			"perfmon pipeline did not drain"},
	}
	for _, tc := range cases {
		r := good()
		tc.doctor(r)
		err := r.Check()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Check() = %v, want %q", tc.name, err, tc.want)
		}
	}
}
