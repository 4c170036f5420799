package ktau

import (
	"testing"

	"ktau/internal/sim"
)

// fakeEnv is a controllable ktau.Env for unit tests.
type fakeEnv struct {
	cycles   int64
	overhead int64
}

func (f *fakeEnv) Cycles() int64         { return f.cycles }
func (f *fakeEnv) AddOverhead(cyc int64) { f.overhead += cyc }
func (f *fakeEnv) advance(d int64)       { f.cycles += d }

func newTestM(opts Options) (*Measurement, *fakeEnv) {
	env := &fakeEnv{}
	if opts.Compiled == 0 {
		opts.Compiled = GroupAll
	}
	if opts.Boot == 0 {
		opts.Boot = GroupAll
	}
	return NewMeasurement(env, opts), env
}

func TestEntryExitExclusiveInclusive(t *testing.T) {
	m, env := newTestM(Options{})
	td := m.CreateTask(1, "p")
	outer := m.Event("sys_read", GroupSyscall)
	inner := m.Event("tcp_recvmsg", GroupTCP)

	m.Entry(td, outer)
	env.advance(100)
	m.Entry(td, inner)
	env.advance(300)
	m.Exit(td, inner)
	env.advance(50)
	m.Exit(td, outer)

	s := m.SnapshotTask(td)
	o := s.FindEvent("sys_read")
	i := s.FindEvent("tcp_recvmsg")
	if o == nil || i == nil {
		t.Fatal("missing events")
	}
	if o.Incl != 450 || o.Excl != 150 {
		t.Errorf("outer incl/excl = %d/%d, want 450/150", o.Incl, o.Excl)
	}
	if i.Incl != 300 || i.Excl != 300 {
		t.Errorf("inner incl/excl = %d/%d, want 300/300", i.Incl, i.Excl)
	}
	if o.Calls != 1 || o.Subrs != 1 || i.Calls != 1 || i.Subrs != 0 {
		t.Errorf("calls/subrs wrong: outer %d/%d inner %d/%d", o.Calls, o.Subrs, i.Calls, i.Subrs)
	}
}

func TestRecursionInclusiveOnce(t *testing.T) {
	m, env := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("recursive", GroupSyscall)
	m.Entry(td, ev)
	env.advance(100)
	m.Entry(td, ev) // recursive activation
	env.advance(100)
	m.Exit(td, ev)
	env.advance(100)
	m.Exit(td, ev)

	s := m.SnapshotTask(td)
	e := s.FindEvent("recursive")
	if e.Incl != 300 {
		t.Errorf("recursive inclusive = %d, want 300 (outermost only)", e.Incl)
	}
	if e.Excl != 300 {
		t.Errorf("recursive exclusive = %d, want 300 (200 outer-minus-child + 100 inner)", e.Excl)
	}
	if e.Calls != 2 {
		t.Errorf("calls = %d, want 2", e.Calls)
	}
}

func TestUnmatchedExitTolerated(t *testing.T) {
	m, _ := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("x", GroupSyscall)
	m.Exit(td, ev) // no entry
	if td.UnmatchedExits() != 1 {
		t.Errorf("unmatched exits = %d, want 1", td.UnmatchedExits())
	}
	if td.StackDepth() != 0 {
		t.Error("stack corrupted by unmatched exit")
	}
}

func TestDisabledGroupsCostOnlyProbe(t *testing.T) {
	env := &fakeEnv{}
	m := NewMeasurement(env, Options{
		Compiled: GroupAll,
		Boot:     GroupSched, // TCP booted off
		Overhead: &OverheadModel{StartMeanCycles: 100, StopMeanCycles: 100, ProbeCycles: 5},
	})
	td := m.CreateTask(1, "p")
	tcp := m.Event("tcp_sendmsg", GroupTCP)
	m.Entry(td, tcp)
	env.advance(100)
	m.Exit(td, tcp)

	if env.overhead != 10 {
		t.Errorf("disabled instrumentation charged %d cycles, want 2 probes = 10", env.overhead)
	}
	if m.SnapshotTask(td).FindEvent("tcp_sendmsg") != nil {
		t.Error("disabled group recorded data")
	}
	if m.Stats.DisabledProbes != 2 {
		t.Errorf("probe count = %d, want 2", m.Stats.DisabledProbes)
	}
}

func TestNotCompiledCostsNothing(t *testing.T) {
	env := &fakeEnv{}
	m := NewMeasurement(env, Options{
		Compiled: GroupSched, // TCP not compiled in at all
		Boot:     GroupAll,
		Overhead: &OverheadModel{StartMeanCycles: 100, StopMeanCycles: 100, ProbeCycles: 5},
	})
	td := m.CreateTask(1, "p")
	tcp := m.Event("tcp_sendmsg", GroupTCP)
	m.Entry(td, tcp)
	m.Exit(td, tcp)
	if env.overhead != 0 {
		t.Errorf("not-compiled instrumentation charged %d cycles, want 0", env.overhead)
	}
}

func TestRuntimeControlTogglesGroups(t *testing.T) {
	m, env := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("schedule", GroupSched)

	m.DisableRuntime(GroupSched)
	m.AddSpan(td, ev, 100)
	if m.SnapshotTask(td).FindEvent("schedule") != nil {
		t.Error("runtime-disabled group recorded a span")
	}
	m.EnableRuntime(GroupSched)
	env.advance(10)
	m.AddSpan(td, ev, 100)
	e := m.SnapshotTask(td).FindEvent("schedule")
	if e == nil || e.Excl != 100 || e.Calls != 1 {
		t.Errorf("re-enabled span not recorded: %+v", e)
	}
}

func TestEnabledMaskIntersection(t *testing.T) {
	m := NewMeasurement(&fakeEnv{}, Options{
		Compiled: GroupSched | GroupIRQ,
		Boot:     GroupSched | GroupTCP,
	})
	if !m.Enabled(GroupSched) {
		t.Error("SCHED should be enabled (compiled & booted)")
	}
	if m.Enabled(GroupIRQ) {
		t.Error("IRQ compiled but not booted should be disabled")
	}
	if m.Enabled(GroupTCP) {
		t.Error("TCP booted but not compiled should be disabled")
	}
}

func TestAtomicEventStatistics(t *testing.T) {
	m, _ := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("tcp_pkt_size", GroupTCP)
	for _, v := range []float64{100, 200, 300} {
		m.Atomic(td, ev, v)
	}
	s := m.SnapshotTask(td)
	if len(s.Atomics) != 1 {
		t.Fatalf("atomics = %d, want 1", len(s.Atomics))
	}
	a := s.Atomics[0]
	if a.Count != 3 || a.Sum != 600 || a.Min != 100 || a.Max != 300 || a.Mean != 200 {
		t.Errorf("atomic stats wrong: %+v", a)
	}
	if a.Std < 81 || a.Std > 82 {
		t.Errorf("atomic stddev = %v, want ~81.6", a.Std)
	}
}

func TestEventMappingToUserContext(t *testing.T) {
	m, env := newTestM(Options{Mapping: true})
	td := m.CreateTask(1, "p")
	ev := m.Event("tcp_v4_rcv", GroupTCP)
	ctxRecv := m.RegisterContext("MPI_Recv()")
	ctxComp := m.RegisterContext("compute()")

	m.SetUserCtx(td, ctxRecv)
	m.Entry(td, ev)
	env.advance(100)
	m.Exit(td, ev)

	m.SetUserCtx(td, ctxComp)
	m.Entry(td, ev)
	env.advance(50)
	m.Exit(td, ev)
	m.AddSpan(td, ev, 25)

	s := m.SnapshotTask(td)
	if len(s.Mapped) != 2 {
		t.Fatalf("mapped records = %d, want 2", len(s.Mapped))
	}
	byCtx := map[string]MappedSnap{}
	for _, ms := range s.Mapped {
		byCtx[ms.CtxName] = ms
	}
	if r := byCtx["MPI_Recv()"]; r.Calls != 1 || r.Excl != 100 {
		t.Errorf("MPI_Recv mapping wrong: %+v", r)
	}
	if c := byCtx["compute()"]; c.Calls != 2 || c.Excl != 75 {
		t.Errorf("compute mapping wrong: %+v", c)
	}
}

func TestMappingContextCapturedAtEntry(t *testing.T) {
	m, env := newTestM(Options{Mapping: true})
	td := m.CreateTask(1, "p")
	ev := m.Event("schedule", GroupSched)
	c1 := m.RegisterContext("a")
	c2 := m.RegisterContext("b")
	m.SetUserCtx(td, c1)
	m.Entry(td, ev)
	m.SetUserCtx(td, c2) // context changes mid-event
	env.advance(10)
	m.Exit(td, ev)
	s := m.SnapshotTask(td)
	if len(s.Mapped) != 1 || s.Mapped[0].CtxName != "a" {
		t.Errorf("mapping should use entry-time context: %+v", s.Mapped)
	}
}

func TestRegisterContextDedup(t *testing.T) {
	m, _ := newTestM(Options{})
	a := m.RegisterContext("foo")
	b := m.RegisterContext("foo")
	c := m.RegisterContext("bar")
	if a != b {
		t.Error("same name got different context ids")
	}
	if c == a {
		t.Error("different names share a context id")
	}
	if m.CtxName(a) != "foo" || m.CtxName(c) != "bar" {
		t.Error("context name resolution wrong")
	}
	if m.CtxName(0) != "" || m.CtxName(999) != "" {
		t.Error("out-of-range context names must be empty")
	}
}

func TestKernelWideAggregation(t *testing.T) {
	m, env := newTestM(Options{RetainExited: true})
	ev := m.Event("do_IRQ[timer]", GroupIRQ)
	t1 := m.CreateTask(1, "a")
	t2 := m.CreateTask(2, "b")
	m.AddSpan(t1, ev, 100)
	m.AddSpan(t2, ev, 200)
	env.advance(1000)
	m.ExitTask(t1)
	m.AddSpan(t2, ev, 50)

	kw := m.KernelWide()
	e := kw.FindEvent("do_IRQ[timer]")
	if e == nil || e.Calls != 3 || e.Excl != 350 {
		t.Errorf("kernel-wide aggregate wrong: %+v", e)
	}
	if kw.PID != KernelWidePID {
		t.Errorf("kernel-wide PID = %d", kw.PID)
	}
}

func TestTaskLifecycleAndRetention(t *testing.T) {
	m, env := newTestM(Options{RetainExited: true})
	td := m.CreateTask(7, "p")
	if m.Task(7) != td {
		t.Error("Task lookup failed")
	}
	env.advance(500)
	m.ExitTask(td)
	if m.Task(7) != nil {
		t.Error("exited task still live")
	}
	if len(m.AllTasks()) != 1 {
		t.Error("retained task missing from AllTasks")
	}
	if !td.Exited || td.ExitedTSC != 500 {
		t.Errorf("exit stamping wrong: %v %d", td.Exited, td.ExitedTSC)
	}
	// Double exit is a no-op.
	m.ExitTask(td)
	if len(m.AllTasks()) != 1 {
		t.Error("double exit duplicated retention")
	}
}

func TestNoRetention(t *testing.T) {
	m, _ := newTestM(Options{RetainExited: false})
	td := m.CreateTask(7, "p")
	m.ExitTask(td)
	if len(m.AllTasks()) != 0 {
		t.Error("non-retaining measurement kept exited task")
	}
}

func TestDuplicatePIDPanics(t *testing.T) {
	m, _ := newTestM(Options{})
	m.CreateTask(1, "a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate pid")
		}
	}()
	m.CreateTask(1, "b")
}

func TestResetClearsProfile(t *testing.T) {
	m, env := newTestM(Options{Mapping: true, TraceCapacity: 8})
	td := m.CreateTask(1, "p")
	ev := m.Event("x", GroupSyscall)
	ctx := m.RegisterContext("r")
	m.SetUserCtx(td, ctx)
	m.Entry(td, ev)
	env.advance(10)
	m.Exit(td, ev)
	m.Reset(td)
	s := m.SnapshotTask(td)
	if len(s.Events) != 0 || len(s.Mapped) != 0 {
		t.Errorf("reset left data: %+v", s)
	}
	if td.Trace().Len() != 0 {
		t.Error("reset left trace records")
	}
}

func TestSnapshotGroupTotals(t *testing.T) {
	m, _ := newTestM(Options{})
	td := m.CreateTask(1, "p")
	m.AddSpan(td, m.Event("schedule", GroupSched), 100)
	m.AddSpan(td, m.Event("do_IRQ[timer]", GroupIRQ), 40)
	m.AddSpan(td, m.Event("schedule_vol", GroupSched), 60)
	s := m.SnapshotTask(td)
	gt := s.GroupTotals()
	if gt[GroupSched] != 160 || gt[GroupIRQ] != 40 {
		t.Errorf("group totals wrong: %v", gt)
	}
	if s.TotalExcl() != 200 {
		t.Errorf("total excl = %d, want 200", s.TotalExcl())
	}
}

func TestOverheadInjectionPerEvent(t *testing.T) {
	env := &fakeEnv{}
	m := NewMeasurement(env, Options{
		Compiled: GroupAll, Boot: GroupAll,
		Overhead: &OverheadModel{StartMeanCycles: 244, StopMeanCycles: 295},
	})
	td := m.CreateTask(1, "p")
	ev := m.Event("x", GroupSyscall)
	m.Entry(td, ev)
	m.Exit(td, ev)
	if env.overhead != 244+295 {
		t.Errorf("overhead = %d, want 539", env.overhead)
	}
}

func TestOverheadModelSampling(t *testing.T) {
	rng := sim.NewRNG(9)
	om := DefaultOverheadModel(rng)
	n := 20000
	var sum float64
	min := int64(1 << 62)
	for i := 0; i < n; i++ {
		v := om.SampleStart()
		if v < int64(om.StartMinCycles) {
			t.Fatalf("sample %d below min %v", v, om.StartMinCycles)
		}
		if v < min {
			min = v
		}
		sum += float64(v)
	}
	mean := sum / float64(n)
	// Truncation at min raises the mean slightly above 244.4.
	if mean < 230 || mean > 330 {
		t.Errorf("start overhead mean = %v, want in [230,330]", mean)
	}
}

// TestOverheadModelFollowsFieldChanges pins the cached log-normal parameters
// to the exported fields: after a caller changes StopMeanCycles and then
// StopStdCycles mid-stream, every later draw must be the one a fresh
// sim.RNG.LogNormal call with the new fields gives, and the start draws
// sharing the stream must be unaffected.
func TestOverheadModelFollowsFieldChanges(t *testing.T) {
	om := DefaultOverheadModel(sim.NewStream(3, "overhead"))
	twin := DefaultOverheadModel(sim.NewStream(3, "overhead"))
	ref := sim.NewStream(3, "overhead")
	want := func(mean, std, min float64) int64 {
		return int64(max(ref.LogNormal(mean, std), min))
	}
	differs := 0
	check := func(stopMean, stopStd float64) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if got, w := om.SampleStart(), want(244.4, 236.3, 160); got != w {
				t.Fatalf("stop %v/%v: start draw %d = %d, want %d", stopMean, stopStd, i, got, w)
			}
			twin.SampleStart()
			got := om.SampleStop()
			if w := want(stopMean, stopStd, 214); got != w {
				t.Fatalf("stop %v/%v: stop draw %d = %d, want %d", stopMean, stopStd, i, got, w)
			}
			if got != twin.SampleStop() {
				differs++
			}
		}
	}
	check(295.3, 268.8)
	if differs != 0 {
		t.Fatalf("%d draws differ from an identical model", differs)
	}
	om.StopMeanCycles = 5000
	check(5000, 268.8)
	om.StopStdCycles = 10
	check(5000, 10)
	if differs != 200 {
		t.Errorf("%d of 200 draws after the change equal the unchanged model's, want 0", 200-differs)
	}
}

func TestTraceRecordsEmitted(t *testing.T) {
	m, env := newTestM(Options{TraceCapacity: 16})
	td := m.CreateTask(1, "p")
	ev := m.Event("sys_read", GroupSyscall)
	m.Entry(td, ev)
	env.advance(10)
	m.Exit(td, ev)
	m.Atomic(td, m.Event("sz", GroupTCP), 42)

	recs := td.Trace().Snapshot()
	if len(recs) != 3 {
		t.Fatalf("trace records = %d, want 3", len(recs))
	}
	if recs[0].Kind != KindEntry || recs[1].Kind != KindExit || recs[2].Kind != KindAtomic {
		t.Errorf("record kinds wrong: %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	if recs[2].Val != 42 {
		t.Errorf("atomic value = %d, want 42", recs[2].Val)
	}
	if recs[0].TSC > recs[1].TSC {
		t.Error("trace timestamps not monotone")
	}
}

func TestStackCorrectionOnStaleFrames(t *testing.T) {
	m, env := newTestM(Options{})
	td := m.CreateTask(1, "p")
	outer := m.Event("sys_read", GroupSyscall)
	inner := m.Event("tcp_recvmsg", GroupTCP)

	m.Entry(td, outer)
	env.advance(100)
	m.Entry(td, inner)
	env.advance(100)
	// TCP gets disabled before the inner exit: the exit is swallowed,
	// leaving a stale tcp frame on the stack.
	m.DisableRuntime(GroupTCP)
	m.Exit(td, inner)
	m.EnableRuntime(GroupTCP)
	env.advance(100)
	// The outer exit must pop through the stale frame (stack correction)
	// rather than being discarded forever.
	m.Exit(td, outer)

	if td.StackDepth() != 0 {
		t.Fatalf("stack depth = %d after correction, want 0", td.StackDepth())
	}
	o := m.SnapshotTask(td).FindEvent("sys_read")
	if o == nil || o.Incl != 300 {
		t.Errorf("outer inclusive = %+v, want 300 (full span despite stale frame)", o)
	}
	if td.UnmatchedExits() != 1 { // the aborted stale frame (the swallowed
		// exit itself was a disabled probe, not an unmatched exit)
		t.Errorf("unmatched exits = %d, want 1", td.UnmatchedExits())
	}
}

func TestAccessorsAndMasks(t *testing.T) {
	env := &fakeEnv{}
	om := &OverheadModel{StartMeanCycles: 1}
	m := NewMeasurement(env, Options{
		Compiled: GroupSched | GroupTCP, Boot: GroupSched,
		Overhead: om, TraceCapacity: 7, Mapping: true,
	})
	if !m.CompiledIn(GroupTCP) || m.CompiledIn(GroupIRQ) {
		t.Error("CompiledIn wrong")
	}
	if m.CompiledMask() != GroupSched|GroupTCP || m.BootMask() != GroupSched {
		t.Error("mask accessors wrong")
	}
	if m.RuntimeMask() != GroupSched {
		t.Error("runtime defaults to boot mask")
	}
	if m.Overhead() != om || m.TraceCapacity() != 7 || !m.MappingEnabled() {
		t.Error("option accessors wrong")
	}
	names := GroupNamesSorted(GroupSched | GroupTCP)
	if len(names) != 2 || names[0] != "SCHED" || names[1] != "TCP" {
		t.Errorf("GroupNamesSorted = %v", names)
	}
	// Counter source accessors.
	if m.CounterNames() != nil {
		t.Error("no counter source yet")
	}
	m.SetCounterSource(stubCounters{})
	if got := m.CounterNames(); len(got) != 1 || got[0] != "X" {
		t.Errorf("counter names = %v", got)
	}
	m.SetCounterSource(nil)
	if m.CounterNames() != nil {
		t.Error("detaching counter source must clear names")
	}
}

type stubCounters struct{}

func (stubCounters) Names() []string             { return []string{"X"} }
func (stubCounters) Read(int) [MaxCounters]int64 { return [MaxCounters]int64{} }
