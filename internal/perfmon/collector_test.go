package perfmon

import (
	"testing"

	"ktau/internal/cluster"
	"ktau/internal/ktau"
	"ktau/internal/ship"
)

// procSnap builds a one-event process snapshot for agent-state tests.
func procSnap(pid int, name string, tsc int64, calls uint64) ktau.Snapshot {
	return ktau.Snapshot{
		PID: pid, Name: name, TSC: tsc,
		Events: []ktau.EventSnap{{
			ID: 1, Name: "schedule", Group: ktau.GroupSched,
			Calls: calls, Incl: int64(calls) * 10, Excl: int64(calls) * 10,
		}},
	}
}

func TestAgentStateEvictsDeadPIDs(t *testing.T) {
	a := newAgentState()
	kw := procSnap(ktau.KernelWidePID, "kernel", 100, 4)

	f := a.buildFrame("n", 0, 0, 2, false, kw,
		[]ktau.Snapshot{procSnap(1, "one", 100, 2), procSnap(2, "two", 100, 3)})
	if len(f.Procs) != 2 || len(a.prevProc) != 2 {
		t.Fatalf("round 0: %d proc deltas, %d baselines", len(f.Procs), len(a.prevProc))
	}

	// PID 1 exits between rounds: its baseline must be evicted, not retained
	// forever (the churn leak).
	kw = procSnap(ktau.KernelWidePID, "kernel", 200, 8)
	f = a.buildFrame("n", 0, 1, 2, false, kw,
		[]ktau.Snapshot{procSnap(2, "two", 200, 5)})
	if len(a.prevProc) != 1 {
		t.Fatalf("round 1: baseline kept %d entries, want 1", len(a.prevProc))
	}
	if _, stale := a.prevProc[1]; stale {
		t.Fatal("round 1: exited PID 1 still in the baseline")
	}
	if len(f.Procs) != 1 || f.Procs[0].PID != 2 || f.Procs[0].DTotal != 20 {
		t.Fatalf("round 1 deltas = %+v", f.Procs)
	}

	// A new process reusing PID 1 starts from a fresh (zero) baseline.
	kw = procSnap(ktau.KernelWidePID, "kernel", 300, 12)
	f = a.buildFrame("n", 0, 2, 2, false, kw,
		[]ktau.Snapshot{procSnap(1, "reborn", 300, 4), procSnap(2, "two", 300, 5)})
	if len(a.prevProc) != 2 {
		t.Fatalf("round 2: baseline has %d entries, want 2", len(a.prevProc))
	}
	if len(f.Procs) != 1 || f.Procs[0].PID != 1 || f.Procs[0].DTotal != 40 {
		t.Fatalf("round 2 deltas = %+v (want full values for reborn PID 1 only)", f.Procs)
	}
}

func TestAgentStateGapFrameLeavesBaseline(t *testing.T) {
	a := newAgentState()
	kw0 := procSnap(ktau.KernelWidePID, "kernel", 100, 4)
	a.buildFrame("n", 0, 0, 2, false, kw0, nil)

	g := a.gapFrame("n", 0, 1, 2, false)
	if !g.Gap || g.FromTSC != 100 || g.ToTSC != 100 || len(g.Kernel) != 0 {
		t.Fatalf("gap frame = %+v", g)
	}

	// The next successful read's deltas cover the whole span including the
	// gap round, because the baseline was not advanced.
	kw2 := procSnap(ktau.KernelWidePID, "kernel", 300, 10)
	f := a.buildFrame("n", 0, 2, 2, false, kw2, nil)
	if f.FromTSC != 100 || f.ToTSC != 300 {
		t.Fatalf("post-gap window = [%d,%d], want [100,300]", f.FromTSC, f.ToTSC)
	}
	if d := f.Kernel[0].DCalls; d != 6 {
		t.Fatalf("post-gap DCalls = %d, want 6 (covering the gap)", d)
	}
}

func TestDeployRejectsEmptyCluster(t *testing.T) {
	if _, err := Deploy(&cluster.Cluster{}, Config{}); err == nil {
		t.Fatal("Deploy on an empty cluster did not error")
	}
}

func TestElectSkipsCrashedNodes(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: cluster.UniformNodes("n", 3), Seed: 1})
	defer c.Shutdown()
	if got := ship.Elect(c); got != 0 {
		t.Fatalf("Elect = %d, want 0", got)
	}
	c.Node(0).K.Crash()
	c.PublishViews()
	if got := ship.Elect(c); got != 1 {
		t.Fatalf("Elect with node 0 crashed = %d, want 1", got)
	}
	c.Node(1).K.Crash()
	c.Node(2).K.Crash()
	c.PublishViews()
	if got := ship.Elect(c); got != -1 {
		t.Fatalf("Elect with all nodes crashed = %d, want -1", got)
	}
	if _, err := Deploy(c, Config{}); err == nil {
		t.Fatal("Deploy with no live node did not error")
	}
}
