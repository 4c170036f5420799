package libktau

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/procfs"
	"ktau/internal/sim"
)

// env is a minimal ktau.Env for protocol tests.
type env struct{ c int64 }

func (e *env) Cycles() int64     { return e.c }
func (e *env) AddOverhead(int64) {}

func buildM(t *testing.T) (*ktau.Measurement, *env) {
	t.Helper()
	e := &env{}
	m := ktau.NewMeasurement(e, ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
		Mapping: true, TraceCapacity: 32, RetainExited: true,
	})
	return m, e
}

func populate(m *ktau.Measurement, e *env) *ktau.TaskData {
	td := m.CreateTask(42, "lu.rank0")
	sys := m.Event("sys_read", ktau.GroupSyscall)
	tcp := m.Event("tcp_recvmsg", ktau.GroupTCP)
	pkt := m.Event("tcp_pkt_bytes", ktau.GroupTCP)
	ctx := m.RegisterContext("MPI_Recv()")
	m.SetUserCtx(td, ctx)
	m.Entry(td, sys)
	e.c += 100
	m.Entry(td, tcp)
	e.c += 400
	m.Exit(td, tcp)
	e.c += 50
	m.Exit(td, sys)
	m.Atomic(td, pkt, 1448)
	m.Atomic(td, pkt, 720)
	return td
}

func TestBinaryRoundTrip(t *testing.T) {
	m, e := buildM(t)
	populate(m, e)
	fs := procfs.New(m)
	h := Open(fs)

	got, err := h.GetProfile(ScopeOther, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SnapshotTask(m.Task(42))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded profile differs:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestKernelWideScope(t *testing.T) {
	m, e := buildM(t)
	populate(m, e)
	td2 := m.CreateTask(43, "other")
	m.AddSpan(td2, m.Event("schedule", ktau.GroupSched), 500)
	h := Open(procfs.New(m))
	kw, err := h.GetProfile(ScopeKernelWide, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kw.PID != ktau.KernelWidePID {
		t.Errorf("kernel-wide pid = %d", kw.PID)
	}
	if kw.FindEvent("schedule") == nil || kw.FindEvent("sys_read") == nil {
		t.Error("kernel-wide profile missing aggregated events")
	}
}

func TestAllScope(t *testing.T) {
	m, e := buildM(t)
	populate(m, e)
	m.CreateTask(43, "other")
	h := Open(procfs.New(m))
	snaps, err := h.GetProfiles(ScopeAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("all-scope returned %d profiles, want 2", len(snaps))
	}
}

func TestNoSuchPID(t *testing.T) {
	m, _ := buildM(t)
	h := Open(procfs.New(m))
	if _, err := h.GetProfile(ScopeOther, 999); !errors.Is(err, procfs.ErrNoSuchPID) {
		t.Errorf("err = %v, want ErrNoSuchPID", err)
	}
}

func TestSessionlessShortBufferRetry(t *testing.T) {
	m, e := buildM(t)
	td := populate(m, e)
	fs := procfs.New(m)

	// Query size, then grow the profile before reading: the read into the
	// stale-size buffer must fail with the new size, and a retry succeeds —
	// the exact session-less dance of §4.3.
	size, err := fs.ProfileSize(42)
	if err != nil {
		t.Fatal(err)
	}
	m.Entry(td, m.Event("sys_brandnew_call_with_long_name", ktau.GroupSyscall))
	e.c += 10
	m.Exit(td, m.Event("sys_brandnew_call_with_long_name", ktau.GroupSyscall))

	buf := make([]byte, size)
	_, err = fs.ProfileRead(42, buf)
	var short procfs.ErrShortBuffer
	if !errors.As(err, &short) {
		t.Fatalf("expected ErrShortBuffer, got %v", err)
	}
	if short.Needed <= size {
		t.Errorf("needed %d should exceed stale size %d", short.Needed, size)
	}
	buf = make([]byte, short.Needed)
	if _, err := fs.ProfileRead(42, buf); err != nil {
		t.Errorf("retry with grown buffer failed: %v", err)
	}
	// The library loops internally and must succeed in one call.
	if _, err := Open(fs).GetProfile(ScopeOther, 42); err != nil {
		t.Errorf("library retry failed: %v", err)
	}
}

func TestTraceReadDrains(t *testing.T) {
	m, e := buildM(t)
	td := populate(m, e)
	h := Open(procfs.New(m))
	dump, err := h.GetTrace(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 6 { // 2 entry + 2 exit + 2 atomic
		t.Errorf("trace records = %d, want 6", len(dump.Records))
	}
	if dump.PID != 42 {
		t.Errorf("trace pid = %d", dump.PID)
	}
	if td.Trace().Len() != 0 {
		t.Error("trace not drained by read")
	}
	// Second read: empty.
	dump2, err := h.GetTrace(42)
	if err != nil || len(dump2.Records) != 0 {
		t.Errorf("second read = %d records, err %v", len(dump2.Records), err)
	}
}

func TestControlOpsThroughLibrary(t *testing.T) {
	m, e := buildM(t)
	td := populate(m, e)
	h := Open(procfs.New(m))

	if err := h.DisableGroups(ktau.GroupTCP); err != nil {
		t.Fatal(err)
	}
	if m.Enabled(ktau.GroupTCP) {
		t.Error("TCP still enabled after control op")
	}
	if err := h.EnableGroups(ktau.GroupTCP); err != nil {
		t.Fatal(err)
	}
	if !m.Enabled(ktau.GroupTCP) {
		t.Error("TCP not re-enabled")
	}
	if err := h.Reset(42); err != nil {
		t.Fatal(err)
	}
	if s := m.SnapshotTask(td); len(s.Events) != 0 {
		t.Error("reset via library did not clear profile")
	}
	_ = e
}

func TestASCIIRoundTrip(t *testing.T) {
	m, e := buildM(t)
	populate(m, e)
	snap := m.SnapshotTask(m.Task(42))

	var buf bytes.Buffer
	if err := WriteASCII(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ParseASCII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(back[0], snap) {
		t.Errorf("ascii round trip differs:\ngot  %+v\nwant %+v", back, snap)
	}
}

func TestASCIIRejectsGarbage(t *testing.T) {
	if _, err := ParseASCII(strings.NewReader("not a profile\n")); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParseASCII(strings.NewReader("#KTAU-PROFILE v2\nbroken meta\n")); err == nil {
		t.Error("expected meta error")
	}
}

func TestDecodeRejectsCorruptBlob(t *testing.T) {
	if _, err := DecodeProfiles([]byte{1, 2, 3}); err == nil {
		t.Error("expected error on tiny blob")
	}
	m, e := buildM(t)
	populate(m, e)
	fs := procfs.New(m)
	size, _ := fs.ProfileSize(42)
	buf := make([]byte, size)
	n, _ := fs.ProfileRead(42, buf)
	// Truncate mid-structure.
	if _, err := DecodeProfiles(buf[:n/2]); err == nil {
		t.Error("expected error on truncated blob")
	}
}

func TestFormatProfileRenders(t *testing.T) {
	m, e := buildM(t)
	populate(m, e)
	var buf bytes.Buffer
	FormatProfile(&buf, m.SnapshotTask(m.Task(42)), 450_000_000)
	out := buf.String()
	for _, want := range []string{"sys_read", "tcp_recvmsg", "tcp_pkt_bytes", "MPI_Recv()"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted profile missing %q:\n%s", want, out)
		}
	}
}

func TestKTAUDDaemonCollects(t *testing.T) {
	eng := sim.NewEngine()
	kp := kernel.DefaultParams()
	kp.CostJitter = 0
	kp.PageFaultRate = 0
	k := kernel.NewKernel(eng, "n0", kp, sim.NewRNG(3), ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
	})
	defer k.Shutdown()
	fs := procfs.New(k.Ktau())

	app := k.Spawn("app", func(u *kernel.UCtx) {
		for i := 0; i < 10; i++ {
			u.Compute(5 * time.Millisecond)
			u.Syscall("sys_getpid", nil)
		}
	}, kernel.SpawnOpts{Kind: kernel.KindUser})

	var rounds int
	var sawApp bool
	ktaud := k.Spawn("ktaud", Daemon(fs, DaemonConfig{
		Interval: 10 * time.Millisecond,
		Rounds:   5,
		OnSnapshot: func(round int, snaps []ktau.Snapshot) {
			rounds++
			for _, s := range snaps {
				if s.Name == "app" && s.FindEvent("sys_getpid") != nil {
					sawApp = true
				}
			}
		},
	}), kernel.SpawnOpts{Kind: kernel.KindDaemon})

	deadline := eng.Now().Add(5 * time.Second)
	for (!app.Exited() || !ktaud.Exited()) && eng.Now() < deadline {
		if !eng.Step() {
			break
		}
	}
	if rounds != 5 {
		t.Errorf("ktaud rounds = %d, want 5", rounds)
	}
	if !sawApp {
		t.Error("ktaud never observed the app's syscall profile")
	}
	if ktaud.KernTime == 0 {
		t.Error("ktaud reads cost no kernel time — syscall modelling missing")
	}
}

func TestRunKtauWrapsProgram(t *testing.T) {
	eng := sim.NewEngine()
	kp := kernel.DefaultParams()
	kp.CostJitter = 0
	kp.PageFaultRate = 0
	k := kernel.NewKernel(eng, "n0", kp, sim.NewRNG(3), ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
	})
	defer k.Shutdown()
	fs := procfs.New(k.Ktau())

	var snap ktau.Snapshot
	prog := RunKtau(fs, func(u *kernel.UCtx) {
		u.Compute(3 * time.Millisecond)
		u.Syscall("sys_open", func(kc *kernel.KCtx) { kc.Use(10 * time.Microsecond) })
	}, &snap)
	task := k.Spawn("timed", prog, kernel.SpawnOpts{Kind: kernel.KindUser})

	deadline := eng.Now().Add(time.Second)
	for !task.Exited() && eng.Now() < deadline {
		if !eng.Step() {
			break
		}
	}
	if !task.Exited() {
		t.Fatal("wrapped program did not finish")
	}
	if snap.PID != task.PID() {
		t.Errorf("snapshot pid = %d, want %d", snap.PID, task.PID())
	}
	if snap.FindEvent("sys_open") == nil {
		t.Error("runKtau profile missing the wrapped program's syscall")
	}
}

func TestDiffBetweenSnapshots(t *testing.T) {
	m, e := buildM(t)
	td := populate(m, e)
	before := m.SnapshotTask(td)

	// More activity.
	sys := m.Reg.Lookup("sys_read")
	m.Entry(td, sys)
	e.c += 700
	m.Exit(td, sys)
	novel := m.Event("sys_brandnew", ktau.GroupSyscall)
	m.Entry(td, novel)
	e.c += 50
	m.Exit(td, novel)
	after := m.SnapshotTask(td)

	diff := Diff(before, after)
	byName := map[string]DiffEntry{}
	for _, d := range diff {
		byName[d.Name] = d
	}
	if d := byName["sys_read"]; d.DeltaCalls != 1 || d.DeltaExcl != 700 {
		t.Errorf("sys_read diff = %+v", d)
	}
	if d := byName["sys_brandnew"]; d.CallsA != 0 || d.DeltaCalls != 1 || d.DeltaExcl != 50 {
		t.Errorf("new event diff = %+v", d)
	}
	if d := byName["tcp_recvmsg"]; d.DeltaCalls != 0 || d.DeltaExcl != 0 {
		t.Errorf("unchanged event diff = %+v", d)
	}
	// Sorted by |delta excl| descending: sys_read first.
	if diff[0].Name != "sys_read" {
		t.Errorf("diff order wrong: %s first", diff[0].Name)
	}

	var buf bytes.Buffer
	FormatDiff(&buf, diff, 450_000_000)
	out := buf.String()
	if !strings.Contains(out, "sys_read") || strings.Contains(out, "tcp_recvmsg") {
		t.Errorf("FormatDiff should show changed rows only:\n%s", out)
	}
}

func TestASCIIRoundTripWithCounters(t *testing.T) {
	m, e := buildM(t)
	src := &fakeCounters{}
	m.SetCounterSource(src)
	td := m.CreateTask(77, "ctr")
	ev := m.Event("sys_read", ktau.GroupSyscall)
	m.Entry(td, ev)
	src.v[0] += 5000
	src.v[1] += 42
	e.c += 100
	m.Exit(td, ev)
	snap := m.SnapshotTask(td)

	var buf bytes.Buffer
	if err := WriteASCII(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ParseASCII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(back[0], snap) {
		t.Fatalf("counter ascii round trip differs:\ngot  %+v\nwant %+v", back, snap)
	}
	if back[0].Events[0].Ctr[0] != 5000 || back[0].Events[0].Ctr[1] != 42 {
		t.Errorf("counter values lost: %+v", back[0].Events[0].Ctr)
	}
}

func TestBinaryRoundTripWithCounters(t *testing.T) {
	m, e := buildM(t)
	src := &fakeCounters{}
	m.SetCounterSource(src)
	td := m.CreateTask(78, "ctr")
	ev := m.Event("sys_read", ktau.GroupSyscall)
	m.Entry(td, ev)
	src.v[0] += 900
	e.c += 10
	m.Exit(td, ev)

	h := Open(procfs.New(m))
	got, err := h.GetProfile(ScopeOther, 78)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SnapshotTask(td)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("binary counter round trip differs:\ngot  %+v\nwant %+v", got, want)
	}
}

type fakeCounters struct{ v [ktau.MaxCounters]int64 }

func (f *fakeCounters) Names() []string                      { return []string{"PAPI_TOT_INS", "PAPI_L2_TCM"} }
func (f *fakeCounters) Read(pid int) [ktau.MaxCounters]int64 { return f.v }

// TestTraceLossDependsOnDrainRate reproduces the §4.2 caveat: "trace data
// may be lost if the buffer is not read fast enough by user-space
// applications or daemons". A fast-draining KTAUD keeps losses at zero; a
// slow one loses most records through the same small ring.
func TestTraceLossDependsOnDrainRate(t *testing.T) {
	run := func(drainEvery time.Duration) (lost uint64, collected int) {
		eng := sim.NewEngine()
		kp := kernel.DefaultParams()
		kp.CostJitter = 0
		kp.PageFaultRate = 0
		k := kernel.NewKernel(eng, "n0", kp, sim.NewRNG(8), ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			TraceCapacity: 64, RetainExited: true,
		})
		defer k.Shutdown()
		fs := procfs.New(k.Ktau())
		h := Open(fs)

		app := k.Spawn("chatty", func(u *kernel.UCtx) {
			for i := 0; i < 400; i++ {
				u.Syscall("sys_getpid", nil) // 2 trace records per call
				u.Sleep(200 * time.Microsecond)
			}
		}, kernel.SpawnOpts{Kind: kernel.KindUser})

		drainer := k.Spawn("ktaud", func(u *kernel.UCtx) {
			for !app.Exited() {
				u.Sleep(drainEvery)
				u.Syscall("sys_read", func(kc *kernel.KCtx) { kc.Use(5 * time.Microsecond) })
				if dump, err := h.GetTrace(app.PID()); err == nil {
					collected += len(dump.Records)
				}
			}
		}, kernel.SpawnOpts{Kind: kernel.KindDaemon})

		deadline := eng.Now().Add(time.Minute)
		for (!app.Exited() || !drainer.Exited()) && eng.Now() < deadline {
			if !eng.Step() {
				break
			}
		}
		return app.KD().Trace().Lost(), collected
	}

	fastLost, fastGot := run(2 * time.Millisecond) // ~20 records between drains
	slowLost, slowGot := run(80 * time.Millisecond)

	if fastLost != 0 {
		t.Errorf("fast drain lost %d records; 64-slot ring should keep up", fastLost)
	}
	if fastGot < 700 {
		t.Errorf("fast drain collected only %d of ~800+ records", fastGot)
	}
	if slowLost == 0 {
		t.Error("slow drain lost nothing; the ring should have overflowed")
	}
	if slowGot >= fastGot {
		t.Errorf("slow drain collected %d >= fast drain %d", slowGot, fastGot)
	}
}
