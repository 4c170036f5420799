//go:build go1.23

// The constraint above sets this file's language version to go1.23, which
// iter.Pull needs, while both go.mod files still say go 1.22: the benchmark
// module's go line moves only with a change to the benchmark, and without
// the constraint go vet rejects the import in both modules.

package kernel

import (
	"fmt"
	"iter"
	"math"
	"time"

	"ktau/internal/ktau"
	"ktau/internal/sim"
)

// TaskState is the life-cycle state of a simulated process.
type TaskState uint8

const (
	// StateNew means the task exists but has never been made runnable.
	StateNew TaskState = iota
	// StateRunnable means the task is on a runqueue waiting for a CPU.
	StateRunnable
	// StateRunning means the task is current on some CPU.
	StateRunning
	// StateSleeping means the task is blocked waiting for an event.
	StateSleeping
	// StateZombie means the task has exited.
	StateZombie
)

// String names the state.
func (s TaskState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateZombie:
		return "zombie"
	default:
		return "?"
	}
}

// TaskKind classifies tasks for reporting and filtering.
type TaskKind uint8

const (
	// KindUser is an application process (e.g. an MPI rank).
	KindUser TaskKind = iota
	// KindDaemon is a system daemon or interfering background process.
	KindDaemon
	// KindKThread is a kernel thread.
	KindKThread
	// KindIdle is the per-CPU idle task.
	KindIdle
)

// String names the kind.
func (k TaskKind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindDaemon:
		return "daemon"
	case KindKThread:
		return "kthread"
	case KindIdle:
		return "idle"
	default:
		return "?"
	}
}

// Program is the body of a simulated process. It runs as a coroutine of the
// engine: every UCtx or KCtx call that consumes virtual time hands a request
// to the engine and suspends the program until the engine resumes it. All
// CPU consumption and kernel interaction goes through the UCtx it receives;
// plain Go computation between those calls takes zero virtual time.
type Program func(u *UCtx)

type reqKind uint8

const (
	reqCompute reqKind = iota + 1
	reqKCompute
	reqWait
	reqSleep
)

type request struct {
	kind reqKind
	d    time.Duration
	wq   *WaitQueue
}

type shutdownSentinel struct{}

// errShutdown is panicked inside a task's program when the kernel shuts
// down, unwinding it cleanly.
var errShutdown = shutdownSentinel{}

// Task is a simulated process: the analogue of a Linux task_struct, carrying
// the KTAU measurement structure exactly as paper §4.2 describes.
type Task struct {
	k       *Kernel
	pid     int
	name    string
	kind    TaskKind
	state   TaskState
	cpuID   int
	affin   uint64  // 0 = any CPU
	program Program // nil once the task has exited
	uctx    *UCtx
	kctx    KCtx // every system call's kernel context: it only names t and k

	timesliceLeft time.Duration
	work          *workSeg
	resumeFn      func()

	// seg is the storage for the task's work segment (a task consumes at
	// most one segment at a time, so t.work always points here when set);
	// activateFn is the reusable "resume the program" continuation. Both
	// avoid a heap allocation per compute request.
	seg        workSeg
	activateFn func()

	// next resumes the program until its next request (ok is false once the
	// program has returned); stop unwinds a suspended program; yield, held
	// by the program's side, suspends it with a request.
	next  func() (request, bool)
	stop  func()
	yield func(request) bool

	kd  *ktau.TaskData
	rng *sim.RNG

	switchedOutAt sim.Time
	outReason     SwitchReason
	dispatchedAt  sim.Time
	userDebt      time.Duration

	pendingSignals []int
	sigHandlers    map[int]func(int)
	ctr            [NumCounters]int64 // virtual performance counters

	// stalledUntil parks this task's wakeups until the given virtual time
	// (the fault layer's daemon-stall knob); stallWakePending collapses
	// concurrent wake sources into one deferred wake.
	stalledUntil     sim.Time
	stallWakePending bool

	// Accounting, readable by experiments and tests.
	StartAt       sim.Time
	EndAt         sim.Time
	UserTime      time.Duration
	KernTime      time.Duration
	VolWait       time.Duration
	InvolWait     time.Duration
	VolSwitches   uint64
	InvolSwitches uint64
	SignalsTaken  uint64
}

// PID returns the process id.
func (t *Task) PID() int { return t.pid }

// Kernel returns the node's kernel this task belongs to.
func (t *Task) Kernel() *Kernel { return t.k }

// StallUntil parks the task's wakeups until the given virtual time: while
// stalled, a sleeping task stays asleep however often it is woken, and every
// parked wake is delivered once the window closes. A task that is currently
// running is unaffected until it next blocks.
func (t *Task) StallUntil(until sim.Time) {
	if until > t.stalledUntil {
		t.stalledUntil = until
	}
}

// Name returns the process name.
func (t *Task) Name() string { return t.name }

// Kind returns the task classification.
func (t *Task) Kind() TaskKind { return t.kind }

// State returns the current life-cycle state.
func (t *Task) State() TaskState { return t.state }

// LastCPU returns the CPU the task last ran on (-1 before first dispatch).
func (t *Task) LastCPU() int { return t.cpuID }

// KD returns the task's KTAU measurement structure.
func (t *Task) KD() *ktau.TaskData { return t.kd }

// Exited reports whether the task has finished.
func (t *Task) Exited() bool { return t.state == StateZombie }

// Runtime returns the task's lifetime so far (or total if exited).
func (t *Task) Runtime() time.Duration {
	if t.state == StateZombie {
		return t.EndAt.Sub(t.StartAt)
	}
	return t.k.eng.Now().Sub(t.StartAt)
}

// allowedOn reports whether the affinity mask permits running on cpu.
func (t *Task) allowedOn(cpu int) bool {
	return t.affin == 0 || t.affin&(1<<uint(cpu)) != 0
}

// Pin restricts the task to a single CPU (sched_setaffinity with one bit).
func (t *Task) Pin(cpu int) { t.affin = 1 << uint(cpu) }

// OnSignal installs a handler invoked when sig is delivered.
func (t *Task) OnSignal(sig int, h func(int)) {
	if t.sigHandlers == nil {
		t.sigHandlers = make(map[int]func(int))
	}
	t.sigHandlers[sig] = h
}

// account charges consumed CPU time to user or kernel totals and advances
// the task's virtual performance counters.
func (t *Task) account(d time.Duration, user bool) {
	if user {
		t.UserTime += d
	} else {
		t.KernTime += d
	}
	t.k.advanceCounters(t, d, user)
}

func (t *Task) takeUserDebt() time.Duration {
	d := t.userDebt
	t.userDebt = 0
	return d
}

// ---- program side of the coroutine handoff ----

// body is the task's coroutine: the program, with the shutdown unwind
// absorbed so that stop returns normally. Any other panic leaves through
// next, on the goroutine driving the engine.
func (t *Task) body(yield func(request) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSentinel); !ok {
				panic(r)
			}
		}
	}()
	t.yield = yield
	t.program(t.uctx)
}

// call hands a request to the engine and suspends the program until the
// engine resumes it. yield reports false once Shutdown has stopped the
// coroutine; the program then unwinds.
func (t *Task) call(r request) {
	if !t.yield(r) {
		panic(errShutdown)
	}
}

// ---- engine side ----

// SpawnOpts configures task creation.
type SpawnOpts struct {
	Kind TaskKind
	// Affinity is the initial CPU mask (0 = any CPU). Use AffinityCPU to pin
	// to a single processor.
	Affinity uint64
}

// AffinityCPU returns an affinity mask pinning a task to one CPU.
func AffinityCPU(cpu int) uint64 { return 1 << uint(cpu) }

// Spawn creates a process running program and makes it runnable. The KTAU
// measurement structure is attached at creation, mirroring KTAU's hook in
// the process-creation path.
func (k *Kernel) Spawn(name string, program Program, opts SpawnOpts) *Task {
	if k.shutdown {
		panic("kernel: Spawn after Shutdown")
	}
	pid := k.nextPID
	k.nextPID++
	t := &Task{
		k:       k,
		pid:     pid,
		name:    name,
		kind:    opts.Kind,
		state:   StateSleeping,
		cpuID:   -1,
		program: program,
		rng:     k.rng.Stream(fmt.Sprintf("task/%s/%d", name, pid)),
		StartAt: k.eng.Now(),
	}
	t.affin = opts.Affinity
	t.activateFn = func() { k.activate(t) }
	t.kd = k.m.CreateTask(pid, name)
	t.uctx = &UCtx{t: t, k: k}
	t.kctx = KCtx{t: t, k: k}
	k.tasks[pid] = t
	k.order = append(k.order, t)
	t.next, t.stop = iter.Pull(t.body)
	k.Wake(t)
	return t
}

// Signal posts a signal to a task; a sleeping task is woken (interruptible
// sleep), so blocked Wait calls may return spuriously — wait-condition loops
// must re-check, as in a real kernel.
func (k *Kernel) Signal(t *Task, sig int) {
	if t.state == StateZombie {
		return
	}
	t.pendingSignals = append(t.pendingSignals, sig)
	if t.state == StateSleeping {
		k.Wake(t)
	}
}

// activate resumes t's program and handles its next request; a program that
// has returned exits the task.
func (k *Kernel) activate(t *Task) {
	r, ok := t.next()
	if !ok {
		k.exitTask(k.cpus[t.cpuID], t)
		return
	}
	k.handle(t, r)
}

// handle processes one request from a running task.
func (k *Kernel) handle(t *Task, r request) {
	c := k.cpus[t.cpuID]
	switch r.kind {
	case reqCompute:
		d := r.d + t.takeUserDebt()
		n := k.samplePageFaults(d)
		d += time.Duration(n) * k.params.PageFaultCost
		t.seg = workSeg{
			remaining:   d,
			preemptible: true,
			user:        true,
			faults:      n,
			then:        t.activateFn,
		}
		t.work = &t.seg
		if c.needResched && len(c.rq) > 0 {
			k.preemptOut(c)
			return
		}
		k.startWork(c)

	case reqKCompute:
		t.seg = workSeg{
			remaining: r.d,
			user:      false,
			then:      t.activateFn,
		}
		t.work = &t.seg
		k.startWork(c)

	case reqWait:
		r.wq.add(t)
		k.blockCurrent(c, t)

	case reqSleep:
		k.eng.AfterCall(r.d, taskWakeCB, t)
		k.blockCurrent(c, t)

	default:
		panic(fmt.Sprintf("kernel: unknown request kind %d", r.kind))
	}
}

// taskWakeCB is the static sleep-expiry callback (the task rides in the
// event's argument slot).
func taskWakeCB(arg any) {
	t := arg.(*Task)
	t.k.Wake(t)
}

// exitTask finalises a process. It drops the program, so whatever the
// program's closure holds can be collected while the kernel runs on.
func (k *Kernel) exitTask(c *CPU, t *Task) {
	t.state = StateZombie
	t.program = nil
	t.EndAt = k.eng.Now()
	k.m.ExitTask(t.kd)
	if c.curr == t {
		c.curr = nil
	}
	if next := k.pickTask(c); next != nil {
		k.switchTo(c, next)
	} else {
		k.reschedule(c)
	}
}

// samplePageFaults draws the number of page-fault exceptions occurring
// within d of user compute (Poisson with the configured rate).
func (k *Kernel) samplePageFaults(d time.Duration) int {
	mean := k.params.PageFaultRate * d.Seconds()
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation for long bursts.
		n := int(mean + math.Sqrt(mean)*k.rng.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	// Knuth's method.
	l := math.Exp(-mean)
	n := 0
	p := 1.0
	for {
		p *= k.rng.Float64()
		if p <= l {
			return n
		}
		n++
		if n > 1000 {
			return n
		}
	}
}
