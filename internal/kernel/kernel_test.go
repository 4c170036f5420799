package kernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ktau/internal/ktau"
	"ktau/internal/sim"
)

func testKernel(t *testing.T, ncpu int, mut func(*Params)) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	p := DefaultParams()
	p.NumCPUs = ncpu
	p.CostJitter = 0 // keep unit tests exact
	p.PageFaultRate = 0
	if mut != nil {
		mut(&p)
	}
	k := NewKernel(eng, "test0", p, sim.NewRNG(42), ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
	})
	t.Cleanup(k.Shutdown)
	return eng, k
}

// runUntilDone drives the engine until all the given tasks exit or the
// deadline passes.
func runUntilDone(t *testing.T, eng *sim.Engine, deadline time.Duration, tasks ...*Task) {
	t.Helper()
	limit := eng.Now().Add(deadline)
	for eng.Now() < limit {
		allDone := true
		for _, tk := range tasks {
			if !tk.Exited() {
				allDone = false
				break
			}
		}
		if allDone {
			return
		}
		if !eng.Step() {
			t.Fatalf("engine ran dry at %v with tasks unfinished", eng.Now())
		}
	}
	for _, tk := range tasks {
		if !tk.Exited() {
			t.Fatalf("task %s did not finish before %v (state %v)", tk.Name(), deadline, tk.State())
		}
	}
}

func TestSingleTaskCompute(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	task := k.Spawn("worker", func(u *UCtx) {
		u.Compute(10 * time.Millisecond)
	}, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)

	// User time is the requested 10ms plus injected KTAU measurement
	// overhead (timer-tick instrumentation lands in the user segment).
	if task.UserTime < 10*time.Millisecond || task.UserTime > 11*time.Millisecond {
		t.Errorf("user time = %v, want 10ms plus small measurement overhead", task.UserTime)
	}
	if got := eng.Now().Duration(); got < 10*time.Millisecond {
		t.Errorf("finished at %v, before the compute could have completed", got)
	}
}

func TestTwoTasksShareCPUViaTimeslice(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	mk := func(name string) *Task {
		return k.Spawn(name, func(u *UCtx) {
			u.Compute(300 * time.Millisecond)
		}, SpawnOpts{})
	}
	a, b := mk("a"), mk("b")
	runUntilDone(t, eng, 5*time.Second, a, b)

	// Both CPU-bound on one CPU: each must have been preempted at least once
	// and accumulated involuntary wait comparable to the other's runtime.
	if a.InvolSwitches == 0 && b.InvolSwitches == 0 {
		t.Fatalf("no involuntary switches despite CPU contention (a=%d b=%d)",
			a.InvolSwitches, b.InvolSwitches)
	}
	if a.InvolWait+b.InvolWait < 400*time.Millisecond {
		t.Errorf("total involuntary wait %v, want >= 400ms for 2x300ms on 1 CPU",
			a.InvolWait+b.InvolWait)
	}
	// The KTAU profile must agree with the kernel counters.
	snap := k.Ktau().SnapshotTask(a.KD())
	ev := snap.FindEvent("schedule")
	if ev == nil {
		t.Fatal("no 'schedule' (involuntary) event in KTAU profile of a")
	}
	if ev.Calls != a.InvolSwitches {
		t.Errorf("ktau schedule calls = %d, kernel counter = %d", ev.Calls, a.InvolSwitches)
	}
	gotWait := k.DurationOf(ev.Excl)
	diff := gotWait - a.InvolWait
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Errorf("ktau involuntary wait %v vs kernel %v", gotWait, a.InvolWait)
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	eng, k := testKernel(t, 2, nil)
	a := k.Spawn("a", func(u *UCtx) { u.Compute(100 * time.Millisecond) }, SpawnOpts{})
	b := k.Spawn("b", func(u *UCtx) { u.Compute(100 * time.Millisecond) }, SpawnOpts{})
	runUntilDone(t, eng, time.Second, a, b)
	if end := eng.Now().Duration(); end > 150*time.Millisecond {
		t.Errorf("two 100ms tasks on 2 CPUs took %v; expected parallel execution", end)
	}
	if a.InvolSwitches+b.InvolSwitches != 0 {
		t.Errorf("unexpected preemptions on an uncontended 2-CPU system")
	}
}

func TestSleepIsVoluntary(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	task := k.Spawn("sleeper", func(u *UCtx) {
		u.Compute(time.Millisecond)
		u.Sleep(50 * time.Millisecond)
		u.Compute(time.Millisecond)
	}, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)
	if task.VolSwitches == 0 {
		t.Fatal("sleep did not register a voluntary switch")
	}
	if task.VolWait < 50*time.Millisecond {
		t.Errorf("voluntary wait %v, want >= 50ms", task.VolWait)
	}
	snap := k.Ktau().SnapshotTask(task.KD())
	ev := snap.FindEvent("schedule_vol")
	if ev == nil || ev.Calls == 0 {
		t.Fatal("no schedule_vol event in KTAU profile")
	}
}

func TestWaitQueueWake(t *testing.T) {
	eng, k := testKernel(t, 2, nil)
	wq := NewWaitQueue("msg")
	ready := false
	consumer := k.Spawn("consumer", func(u *UCtx) {
		u.Syscall("sys_read", func(kc *KCtx) {
			for !ready {
				kc.Wait(wq)
			}
			kc.Use(10 * time.Microsecond)
		})
	}, SpawnOpts{})
	producer := k.Spawn("producer", func(u *UCtx) {
		u.Compute(20 * time.Millisecond)
		u.Syscall("sys_write", func(kc *KCtx) {
			kc.Use(10 * time.Microsecond)
			ready = true
			wq.WakeAll(u.Kernel())
		})
	}, SpawnOpts{})
	runUntilDone(t, eng, time.Second, consumer, producer)
	if consumer.VolWait < 15*time.Millisecond {
		t.Errorf("consumer voluntary wait %v, want ~20ms", consumer.VolWait)
	}
	snap := k.Ktau().SnapshotTask(consumer.KD())
	if ev := snap.FindEvent("sys_read"); ev == nil || ev.Calls != 1 {
		t.Errorf("sys_read syscall event missing or wrong calls: %+v", ev)
	}
}

func TestSyscallEventsNested(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	var inner ktau.EventID
	task := k.Spawn("sys", func(u *UCtx) {
		inner = u.Kernel().Ktau().Event("tcp_test_inner", ktau.GroupTCP)
		u.Syscall("sys_writev", func(kc *KCtx) {
			kc.Use(100 * time.Microsecond)
			kc.Entry(inner)
			kc.Use(300 * time.Microsecond)
			kc.Exit(inner)
			kc.Use(100 * time.Microsecond)
		})
	}, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)

	snap := k.Ktau().SnapshotTask(task.KD())
	sys := snap.FindEvent("sys_writev")
	in := snap.FindEvent("tcp_test_inner")
	if sys == nil || in == nil {
		t.Fatalf("missing events: sys=%v inner=%v", sys, in)
	}
	if sys.Subrs != 1 {
		t.Errorf("sys_writev subrs = %d, want 1", sys.Subrs)
	}
	if sys.Incl <= sys.Excl {
		t.Errorf("inclusive %d must exceed exclusive %d with a child", sys.Incl, sys.Excl)
	}
	innerDur := k.DurationOf(in.Incl)
	if innerDur < 300*time.Microsecond || innerDur > 320*time.Microsecond {
		t.Errorf("inner inclusive %v, want ~300us", innerDur)
	}
	if sys.Incl < in.Incl {
		t.Errorf("parent inclusive %d < child inclusive %d", sys.Incl, in.Incl)
	}
}

func TestPinnedTaskStaysOnCPU(t *testing.T) {
	eng, k := testKernel(t, 2, nil)
	var sawCPU = -1
	task := k.Spawn("pinned", func(u *UCtx) {
		for i := 0; i < 20; i++ {
			u.Compute(5 * time.Millisecond)
			u.Sleep(time.Millisecond)
			if c := u.Task().LastCPU(); sawCPU == -1 {
				sawCPU = c
			} else if c != sawCPU {
				sawCPU = -2
			}
		}
	}, SpawnOpts{Affinity: AffinityCPU(1)})
	// A competing unpinned task to make migration tempting.
	busy := k.Spawn("busy", func(u *UCtx) { u.Compute(200 * time.Millisecond) }, SpawnOpts{})
	runUntilDone(t, eng, 5*time.Second, task, busy)
	if sawCPU != 1 {
		t.Errorf("pinned task observed on cpu %d, want always 1", sawCPU)
	}
}

func TestTimerTicksChargeIRQEvents(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	task := k.Spawn("w", func(u *UCtx) { u.Compute(50 * time.Millisecond) }, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)
	snap := k.Ktau().SnapshotTask(task.KD())
	ev := snap.FindEvent("do_IRQ[timer]")
	if ev == nil {
		t.Fatal("no timer IRQ events charged to the running task")
	}
	// ~50 ticks should have hit the task while it computed.
	if ev.Calls < 40 || ev.Calls > 60 {
		t.Errorf("timer IRQ calls = %d, want ~50", ev.Calls)
	}
	tick := snap.FindEvent("scheduler_tick")
	if tick == nil || tick.Calls < 40 {
		t.Errorf("scheduler_tick missing or too few: %+v", tick)
	}
}

func TestDevIRQRoutingPolicy(t *testing.T) {
	// Default: all device IRQs on CPU0.
	eng, k := testKernel(t, 2, nil)
	for i := 0; i < 10; i++ {
		k.RaiseDevIRQ("eth0", nil)
	}
	eng.RunUntil(sim.Time(int64(10 * time.Millisecond)))
	if k.CPU(0).IRQTime == 0 {
		t.Error("CPU0 serviced no device IRQ time")
	}
	snap0 := k.Ktau().SnapshotTask(k.CPU(0).idle.KD())
	ev0 := snap0.FindEvent("do_IRQ[eth0]")
	if ev0 == nil || ev0.Calls != 10 {
		t.Fatalf("CPU0 idle profile eth0 IRQs = %+v, want 10 calls", ev0)
	}
	snap1 := k.Ktau().SnapshotTask(k.CPU(1).idle.KD())
	if ev1 := snap1.FindEvent("do_IRQ[eth0]"); ev1 != nil {
		t.Errorf("CPU1 serviced %d eth0 IRQs despite no irq-balance", ev1.Calls)
	}
}

func TestDevIRQBalanced(t *testing.T) {
	eng, k := testKernel(t, 2, func(p *Params) { p.IRQBalance = true })
	for i := 0; i < 10; i++ {
		k.RaiseDevIRQ("eth0", nil)
	}
	eng.RunUntil(sim.Time(int64(10 * time.Millisecond)))
	s0 := k.Ktau().SnapshotTask(k.CPU(0).idle.KD()).FindEvent("do_IRQ[eth0]")
	s1 := k.Ktau().SnapshotTask(k.CPU(1).idle.KD()).FindEvent("do_IRQ[eth0]")
	if s0 == nil || s1 == nil {
		t.Fatalf("balanced IRQs not spread: cpu0=%v cpu1=%v", s0, s1)
	}
	if s0.Calls != 5 || s1.Calls != 5 {
		t.Errorf("round-robin split = %d/%d, want 5/5", s0.Calls, s1.Calls)
	}
}

func TestSoftirqChargesBHAndDefersWakeups(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	wq := NewWaitQueue("rx")
	got := false
	evRcv := k.Ktau().Event("tcp_v4_rcv", ktau.GroupTCP)
	reader := k.Spawn("reader", func(u *UCtx) {
		u.Syscall("sys_read", func(kc *KCtx) {
			for !got {
				kc.Wait(wq)
			}
		})
	}, SpawnOpts{})
	// Deliver a "packet" via device IRQ + bottom half after 5ms.
	eng.After(5*time.Millisecond, func() {
		k.RaiseDevIRQ("eth0", func(b *BHCtx) {
			b.Span(evRcv, 30*time.Microsecond)
			b.Defer(func() {
				got = true
				wq.WakeAll(k)
			})
		})
	})
	runUntilDone(t, eng, time.Second, reader)

	// The BH ran while the CPU was idle (reader blocked), so tcp_v4_rcv is
	// charged to the idle task.
	idleSnap := k.Ktau().SnapshotTask(k.CPU(0).idle.KD())
	rcv := idleSnap.FindEvent("tcp_v4_rcv")
	if rcv == nil || rcv.Calls != 1 {
		t.Fatalf("tcp_v4_rcv not charged to interrupted (idle) context: %+v", rcv)
	}
	soft := idleSnap.FindEvent("do_softirq")
	if soft == nil || soft.Calls != 1 {
		t.Fatalf("do_softirq missing: %+v", soft)
	}
	if reader.VolWait < 4*time.Millisecond {
		t.Errorf("reader voluntary wait %v, want ~5ms", reader.VolWait)
	}
}

func TestWakePreemptionOfLongRunner(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	hog := k.Spawn("hog", func(u *UCtx) { u.Compute(500 * time.Millisecond) }, SpawnOpts{})
	nimble := k.Spawn("nimble", func(u *UCtx) {
		for i := 0; i < 5; i++ {
			u.Sleep(20 * time.Millisecond)
			u.Compute(time.Millisecond)
		}
	}, SpawnOpts{})
	runUntilDone(t, eng, 5*time.Second, hog, nimble)
	if hog.InvolSwitches < 3 {
		t.Errorf("hog preempted %d times by waking sleeper, want >= 3", hog.InvolSwitches)
	}
	// The nimble task should finish long before the hog releases the CPU
	// naturally; its total runtime should be ~105ms, not serialized after.
	if nimble.EndAt.Duration() > 300*time.Millisecond {
		t.Errorf("nimble finished at %v; wake preemption ineffective", nimble.EndAt)
	}
}

func TestSignalsDeliveredAndWakeSleeper(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	var handled []int
	task := k.Spawn("sig", func(u *UCtx) {
		u.Compute(time.Millisecond)
		u.Sleep(time.Hour) // interrupted by the signal
		u.Compute(time.Millisecond)
	}, SpawnOpts{})
	task.OnSignal(10, func(s int) { handled = append(handled, s) })
	eng.After(10*time.Millisecond, func() { k.Signal(task, 10) })
	// The hour-long sleep is cut short by the signal wake... but our Sleep
	// wakes only via its timer. Signal wake makes the task runnable early.
	runUntilDone(t, eng, 30*time.Second, task)
	if len(handled) != 1 || handled[0] != 10 {
		t.Fatalf("signal handler runs = %v, want [10]", handled)
	}
	if end := task.EndAt.Duration(); end > time.Second {
		t.Errorf("signal did not interrupt sleep; finished at %v", end)
	}
	snap := k.Ktau().SnapshotTask(task.KD())
	if ev := snap.FindEvent("signal_deliver"); ev == nil || ev.Calls != 1 {
		t.Errorf("signal_deliver event missing: %+v", ev)
	}
}

func TestPageFaultExceptions(t *testing.T) {
	eng, k := testKernel(t, 1, func(p *Params) { p.PageFaultRate = 1000 })
	task := k.Spawn("faulty", func(u *UCtx) { u.Compute(100 * time.Millisecond) }, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)
	snap := k.Ktau().SnapshotTask(task.KD())
	ev := snap.FindEvent("do_page_fault")
	if ev == nil {
		t.Fatal("no page fault events at rate 1000/s over 100ms")
	}
	if ev.Calls < 50 || ev.Calls > 200 {
		t.Errorf("page faults = %d, want ~100", ev.Calls)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (sim.Time, uint64, time.Duration) {
		eng := sim.NewEngine()
		p := DefaultParams()
		p.NumCPUs = 2
		k := NewKernel(eng, "det", p, sim.NewRNG(7), ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Overhead: nil, RetainExited: true,
		})
		defer k.Shutdown()
		var tasks []*Task
		for i := 0; i < 3; i++ {
			tasks = append(tasks, k.Spawn("w", func(u *UCtx) {
				for j := 0; j < 10; j++ {
					u.Compute(7 * time.Millisecond)
					u.Sleep(3 * time.Millisecond)
					u.Syscall("sys_getpid", nil)
				}
			}, SpawnOpts{}))
		}
		for {
			alldone := true
			for _, tk := range tasks {
				if !tk.Exited() {
					alldone = false
				}
			}
			if alldone || !eng.Step() {
				break
			}
		}
		var inv time.Duration
		for _, tk := range tasks {
			inv += tk.InvolWait + tk.VolWait
		}
		return eng.Now(), eng.EventCount, inv
	}
	t1, c1, w1 := run()
	t2, c2, w2 := run()
	if t1 != t2 || c1 != c2 || w1 != w2 {
		t.Errorf("nondeterministic: run1=(%v,%d,%v) run2=(%v,%d,%v)", t1, c1, w1, t2, c2, w2)
	}
}

// parkedTasks spawns one task in each state a program can be suspended in
// when Shutdown comes, runs k's engine until they have settled, then spawns
// one more that is never dispatched. ran counts started programs and
// unwound counts those whose deferred function has run.
func parkedTasks(t *testing.T, eng *sim.Engine, k *Kernel, ran, unwound *int) {
	t.Helper()
	before := *ran
	wq := NewWaitQueue("never")
	body := func(f func(u *UCtx)) Program {
		return func(u *UCtx) {
			*ran++
			defer func() { *unwound++ }()
			f(u)
		}
	}
	k.Spawn("computing", body(func(u *UCtx) { u.Compute(time.Hour) }), SpawnOpts{})
	k.Spawn("sleeping", body(func(u *UCtx) { u.Sleep(time.Hour) }), SpawnOpts{})
	k.Spawn("waiting", body(func(u *UCtx) {
		u.Syscall("sys_read", func(kc *KCtx) { kc.Wait(wq) })
	}), SpawnOpts{})
	exited := k.Spawn("exited", body(func(u *UCtx) { u.Compute(time.Millisecond) }), SpawnOpts{})
	eng.RunUntil(eng.Now().Add(20 * time.Millisecond))
	if !exited.Exited() || *ran-before != 4 {
		t.Fatalf("setup: exited=%v, %d programs started, want 4", exited.Exited(), *ran-before)
	}
	k.Spawn("fresh", body(func(u *UCtx) { u.Compute(time.Millisecond) }), SpawnOpts{})
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var ran, unwound int
	eng, k := testKernel(t, 2, nil)
	parkedTasks(t, eng, k, &ran, &unwound)
	crashEng, crashed := testKernel(t, 2, nil)
	parkedTasks(t, crashEng, crashed, &ran, &unwound)
	crashed.Crash()
	crashEng.RunUntil(crashEng.Now().Add(10 * time.Millisecond))

	k.Shutdown()
	crashed.Shutdown()
	k.Shutdown() // idempotent; the cleanup calls it again too

	// No polling: Shutdown returns only once every program has unwound.
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the tasks were spawned", n, base)
	}
	if ran != 8 || unwound != ran {
		t.Errorf("%d programs started (want 8, the fresh ones never run), %d deferred functions ran", ran, unwound)
	}
}

// TestTaskPanicLeavesThroughDeferredShutdown drives a kernel the way every
// experiments entry point drives its cluster, with Shutdown deferred: the
// task's panic leaves the engine through it, and every other task must
// still be released.
func TestTaskPanicLeavesThroughDeferredShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	var ran, unwound int
	eng, k := testKernel(t, 2, nil)
	parkedTasks(t, eng, k, &ran, &unwound)
	k.Spawn("boom", func(u *UCtx) {
		u.Compute(time.Millisecond)
		panic("workload bug")
	}, SpawnOpts{})
	r := func() (r any) {
		defer func() { r = recover() }()
		defer k.Shutdown()
		for eng.Step() {
		}
		return nil
	}()
	if r != "workload bug" {
		t.Fatalf("recovered %v, want the task's panic", r)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the tasks were spawned", n, base)
	}
	if unwound != ran {
		t.Errorf("%d programs started, %d deferred functions ran", ran, unwound)
	}
}

// capturing returns a program that holds a buffer, and closes collected
// when the garbage collector frees that buffer.
func capturing(collected chan struct{}) Program {
	buf := new([1 << 10]byte)
	runtime.SetFinalizer(buf, func(*[1 << 10]byte) { close(collected) })
	return func(u *UCtx) {
		u.Compute(time.Millisecond)
		buf[0]++
	}
}

// TestExitedTaskReleasesProgram: once a task has exited, the kernel holds
// nothing its program captured, so that can be collected while the kernel
// runs on, before Shutdown.
func TestExitedTaskReleasesProgram(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	collected := make(chan struct{})
	task := k.Spawn("daemon", capturing(collected), SpawnOpts{Kind: KindDaemon})
	runUntilDone(t, eng, time.Second, task)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("what the exited task's program captured is still reachable")
}

// handoffAccounting runs a workload that issues every request kind on a
// two-CPU kernel, calling step to advance the engine, and returns the
// tasks' and kernel's accounting.
func handoffAccounting(t *testing.T, step func(*sim.Engine) bool) string {
	eng, k := testKernel(t, 2, nil)
	wq := NewWaitQueue("tokens")
	tokens := 0
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, k.Spawn(fmt.Sprintf("w%d", i), func(u *UCtx) {
			for j := 0; j < 20; j++ {
				u.Compute(time.Duration(1+i) * 700 * time.Microsecond)
				u.Syscall("sys_read", func(kc *KCtx) {
					kc.Use(50 * time.Microsecond)
					for tokens == 0 {
						kc.Wait(wq)
					}
					tokens--
				})
				u.Sleep(300 * time.Microsecond)
			}
		}, SpawnOpts{}))
	}
	tasks = append(tasks, k.Spawn("producer", func(u *UCtx) {
		for j := 0; j < 80; j++ {
			u.Compute(400 * time.Microsecond)
			u.Syscall("sys_write", func(kc *KCtx) {
				tokens++
				wq.WakeOne(k)
			})
		}
	}, SpawnOpts{}))
	for done := false; !done; {
		done = true
		for _, tk := range tasks {
			done = done && tk.Exited()
		}
		if !done && !step(eng) {
			t.Fatalf("engine ran dry at %v with tasks unfinished", eng.Now())
		}
	}
	out := fmt.Sprintf("now=%v events=%d stats=%+v\n", eng.Now(), eng.EventCount, k.Stats)
	for _, tk := range tasks {
		out += fmt.Sprintf("%s end=%v user=%v kern=%v vol=%v/%d invol=%v/%d\n", tk.Name(), tk.EndAt,
			tk.UserTime, tk.KernTime, tk.VolWait, tk.VolSwitches, tk.InvolWait, tk.InvolSwitches)
	}
	return out
}

// TestEngineStepsOnFreshGoroutines resumes task programs from a new
// goroutine at every engine step, as the partitioned runner's workers
// resume a group's tasks from whichever worker picks the group up. The
// accounting must equal a run driven from one goroutine.
func TestEngineStepsOnFreshGoroutines(t *testing.T) {
	serial := handoffAccounting(t, (*sim.Engine).Step)
	hopping := handoffAccounting(t, func(eng *sim.Engine) bool {
		ch := make(chan bool)
		go func() { ch <- eng.Step() }()
		return <-ch
	})
	if serial != hopping {
		t.Errorf("accounting differs:\none goroutine:\n%s\nfresh goroutine per step:\n%s", serial, hopping)
	}
}

// BenchmarkTaskHandoff measures one compute request's round trip on one
// CPU: the program hands the request to the engine, the engine runs the
// work segment's completion event and resumes the program.
func BenchmarkTaskHandoff(b *testing.B) {
	eng := sim.NewEngine()
	p := DefaultParams()
	p.NumCPUs = 1
	p.CostJitter = 0
	p.PageFaultRate = 0
	k := NewKernel(eng, "bench", p, sim.NewRNG(1), ktau.Options{})
	defer k.Shutdown()
	task := k.Spawn("w", func(u *UCtx) {
		for i := 0; i < b.N; i++ {
			u.Compute(time.Microsecond)
		}
	}, SpawnOpts{})
	b.ReportAllocs()
	b.ResetTimer()
	for !task.Exited() && eng.Step() {
	}
	b.StopTimer()
	if !task.Exited() {
		b.Fatal("engine ran dry before the task exited")
	}
}

func TestWakeOneWakesInFIFOOrder(t *testing.T) {
	eng, k := testKernel(t, 2, nil)
	wq := NewWaitQueue("fifo")
	var woken []string
	release := 0
	mk := func(name string, delay time.Duration) *Task {
		return k.Spawn(name, func(u *UCtx) {
			u.Sleep(delay) // stagger arrival order
			u.Syscall("sys_read", func(kc *KCtx) {
				my := len(woken) // not meaningful; condition is the release counter
				_ = my
				for release == 0 {
					kc.Wait(wq)
				}
				release--
				woken = append(woken, name)
			})
		}, SpawnOpts{})
	}
	a := mk("first", time.Millisecond)
	b := mk("second", 2*time.Millisecond)
	eng.After(20*time.Millisecond, func() {
		release++
		wq.WakeOne(k)
	})
	eng.After(40*time.Millisecond, func() {
		release++
		wq.WakeOne(k)
	})
	runUntilDone(t, eng, time.Second, a, b)
	if len(woken) != 2 || woken[0] != "first" || woken[1] != "second" {
		t.Errorf("wake order = %v, want FIFO [first second]", woken)
	}
}

func TestSignalToRunnableTaskDeliveredAtDispatch(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	var got int
	hog := k.Spawn("hog", func(u *UCtx) { u.Compute(60 * time.Millisecond) }, SpawnOpts{})
	victim := k.Spawn("victim", func(u *UCtx) {
		u.Compute(60 * time.Millisecond)
	}, SpawnOpts{})
	victim.OnSignal(12, func(s int) { got = s })
	// Signal while the victim sits runnable in the queue behind the hog.
	eng.After(5*time.Millisecond, func() {
		if victim.State() == StateRunnable {
			k.Signal(victim, 12)
		} else {
			k.Signal(victim, 12)
		}
	})
	runUntilDone(t, eng, 5*time.Second, hog, victim)
	if got != 12 {
		t.Errorf("signal not delivered: got %d", got)
	}
	if victim.SignalsTaken != 1 {
		t.Errorf("signals taken = %d", victim.SignalsTaken)
	}
}

func TestUserDebtFoldsIntoNextCompute(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	task := k.Spawn("debtor", func(u *UCtx) {
		u.Charge(5 * time.Millisecond) // user-level instrumentation cost
		u.Compute(10 * time.Millisecond)
	}, SpawnOpts{})
	runUntilDone(t, eng, time.Second, task)
	// The charge inflates the compute burst.
	if task.UserTime < 15*time.Millisecond {
		t.Errorf("user time = %v, want >= 15ms (10 compute + 5 charged)", task.UserTime)
	}
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	_, k := testKernel(t, 1, nil)
	k.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.Spawn("late", func(u *UCtx) {}, SpawnOpts{})
}

func TestTaskPanicPropagatesToEngine(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	task := k.Spawn("boom", func(u *UCtx) {
		u.Compute(time.Millisecond)
		panic("workload bug")
	}, SpawnOpts{})
	_ = task
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to the engine goroutine")
		}
		if r != "workload bug" {
			t.Errorf("panic value = %v", r)
		}
	}()
	for i := 0; i < 100000; i++ {
		if !eng.Step() {
			break
		}
	}
	t.Fatal("engine drained without panicking")
}
