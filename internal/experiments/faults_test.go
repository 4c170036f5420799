package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ktau/internal/faultsim"
)

// TestFaultStudySmallScale runs the full "Chiba with faults" comparison at a
// reduced scale and checks the acceptance properties: the degraded job
// completes with zero hung tasks, at least three fault kinds actually fired,
// and the collector crash forces exactly one re-election with the dead node
// marked down.
func TestFaultStudySmallScale(t *testing.T) {
	study := RunFaultStudy(8, 1, false, 0)

	if !study.Clean.Completed || !study.Clean.Drained {
		t.Fatal("clean baseline did not complete and drain")
	}
	if study.Clean.Failovers != 0 {
		t.Fatalf("clean run performed %d failovers, want 0", study.Clean.Failovers)
	}

	// The degraded job survives the fault plan: it finishes, the pipeline
	// drains, and the injected unreadable-procfs window left gap marks.
	deg := study.Degraded
	if !deg.Completed {
		t.Fatal("degraded job hung under the fault plan")
	}
	if !deg.Drained {
		t.Fatal("degraded pipeline left undelivered final frames")
	}
	var gaps int
	for _, info := range deg.Store.Nodes() {
		gaps += info.Gaps
	}
	if gaps == 0 {
		t.Fatal("procfs faults produced no gap rounds in the store")
	}
	if deg.Injector == nil {
		t.Fatal("degraded run carried no injector")
	}
	st := deg.Injector.Stats
	kinds := 0
	for _, n := range []uint64{st.Losses, st.Delays, st.Partitioned,
		st.Slowdowns, st.Stalls, st.ProcfsErrors} {
		if n > 0 {
			kinds++
		}
	}
	if kinds < 3 {
		t.Fatalf("only %d fault kinds fired (stats %+v), want >= 3", kinds, st)
	}

	// The collector crash forces exactly one re-election; the dead node is
	// marked down while its pre-crash samples survive in the store.
	crash := study.Crash
	if crash.Failovers != 1 {
		t.Fatalf("crash run performed %d failovers, want 1", crash.Failovers)
	}

	// The study's plans are the applied ones, defaults filled in.
	if got := study.CrashPlan.RedeliverAfter; got != faultsim.DefaultRedeliverAfter {
		t.Errorf("CrashPlan.RedeliverAfter = %v, want the default %v", got, faultsim.DefaultRedeliverAfter)
	}
	for _, c := range []struct {
		name    string
		stored  faultsim.Plan
		applied *faultsim.Injector
	}{{"degraded", study.DegradedPlan, deg.Injector}, {"crash", study.CrashPlan, crash.Injector}} {
		if got, ran := c.stored.RedeliverAfter, c.applied.Plan().RedeliverAfter; got != ran {
			t.Errorf("%s plan stores RedeliverAfter %v, the run used %v", c.name, got, ran)
		}
	}
	if crash.Injector == nil || crash.Injector.Stats.Crashes != 1 {
		t.Fatal("crash plan did not crash exactly one node")
	}
	if !crash.Store.Down("ccn0") {
		t.Fatal("crashed collector ccn0 not marked down")
	}
	var dead []string
	for _, info := range crash.Store.Nodes() {
		if info.Down {
			dead = append(dead, info.Name)
			if info.Rounds == 0 {
				t.Fatalf("store lost %s's pre-crash samples", info.Name)
			}
		}
	}
	if len(dead) != 1 || dead[0] != "ccn0" {
		t.Fatalf("down nodes = %v, want [ccn0]", dead)
	}

	var buf bytes.Buffer
	study.Render(&buf)
	out := buf.String()
	for _, want := range []string{"collector crash", "degraded plan injected",
		"marked DOWN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

// TestFaultStudyDeterministic re-runs the degraded configuration with the
// same seed and demands byte-identical exporter output: the fault plan's own
// RNG streams must not perturb the base cluster's determinism.
func TestFaultStudyDeterministic(t *testing.T) {
	var outs []string
	for i := 0; i < 2; i++ {
		spec := DefaultChiba(8, 1)
		spec.Seed = 42
		plan := DegradedPlan(8, 42)
		res := RunChibaLive(spec, LiveOptions{Faults: &plan})
		var prom, jsonl bytes.Buffer
		if err := res.Store.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := res.Store.WriteJSONLines(&jsonl, 0); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, prom.String()+jsonl.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("same seed and fault plan produced different exporter output")
	}
}
