package kernel

import (
	"time"

	"ktau/internal/ktau"
	"ktau/internal/sim"
)

// UCtx is the user-space execution context handed to a Program. All methods
// must be called from the task's own goroutine.
type UCtx struct {
	t *Task
	k *Kernel
}

// Task returns the owning task.
func (u *UCtx) Task() *Task { return u.t }

// Kernel returns the node's kernel.
func (u *UCtx) Kernel() *Kernel { return u.k }

// Now returns the current virtual time.
func (u *UCtx) Now() sim.Time { return u.k.eng.Now() }

// Cycles returns the virtual TSC (what a user-space rdtsc reads).
func (u *UCtx) Cycles() int64 { return u.k.Cycles() }

// RNG returns the task's private random stream.
func (u *UCtx) RNG() *sim.RNG { return u.t.rng }

// Compute consumes d of user-mode CPU time. The task may be preempted and
// interrupted while computing; Compute returns once the full amount has been
// consumed.
func (u *UCtx) Compute(d time.Duration) {
	if d <= 0 {
		d = time.Nanosecond
	}
	u.t.call(request{kind: reqCompute, d: d})
}

// Charge records user-level instrumentation cost (e.g. TAU timer start/stop)
// to be folded into the task's next compute burst — the cheap path that lets
// per-routine measurement overhead perturb the run without a scheduler
// round-trip per probe.
func (u *UCtx) Charge(d time.Duration) {
	if d > 0 {
		u.t.userDebt += d
	}
}

// Sleep blocks the task for d (nanosleep): a voluntary context switch.
func (u *UCtx) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	u.t.call(request{kind: reqSleep, d: d})
}

// Yield releases the CPU to other runnable tasks (sched_yield): a voluntary
// switch if anyone else is waiting.
func (u *UCtx) Yield() {
	u.t.call(request{kind: reqYield})
}

// Syscall crosses into the kernel: the trap costs elapse, the named system
// call's KTAU entry/exit events fire, and body (which may consume kernel CPU
// time, sleep, or block on wait queues through the KCtx) runs in between.
// body may be nil for a trivial system call.
func (u *UCtx) Syscall(name string, body func(*KCtx)) {
	t, k := u.t, u.k
	ev := k.SyscallEvent(name)
	t.call(request{kind: reqKCompute, d: k.jitter(k.params.SyscallEntryCost)})
	k.m.Entry(t.kd, ev)
	if body != nil {
		body(&KCtx{t: t, k: k})
	}
	k.m.Exit(t.kd, ev)
	t.call(request{kind: reqKCompute, d: k.jitter(k.params.SyscallExitCost)})
}

// SetKtauCtx publishes the current user-level context id for KTAU's event
// mapping (set by the TAU layer on routine entry/exit). Costless.
func (u *UCtx) SetKtauCtx(ctx int32) {
	u.k.m.SetUserCtx(u.t.kd, ctx)
}

// KtauCtx returns the current mapping context id.
func (u *UCtx) KtauCtx() int32 { return u.t.kd.UserCtx() }

// KCtx is the kernel-mode execution context available inside a system call
// body. All methods must be called from the task's own goroutine.
type KCtx struct {
	t *Task
	k *Kernel
}

// Task returns the task executing the system call.
func (kc *KCtx) Task() *Task { return kc.t }

// Kernel returns the node's kernel.
func (kc *KCtx) Kernel() *Kernel { return kc.k }

// Now returns the current virtual time.
func (kc *KCtx) Now() sim.Time { return kc.k.eng.Now() }

// Use consumes d of kernel-mode CPU time (non-preemptible; interrupts may
// still interject and delay completion). Bounded cost jitter is applied.
func (kc *KCtx) Use(d time.Duration) {
	if d <= 0 {
		return
	}
	kc.t.call(request{kind: reqKCompute, d: kc.k.jitter(d)})
}

// Entry fires the KTAU entry macro for ev in this process's kernel profile.
func (kc *KCtx) Entry(ev ktau.EventID) { kc.k.m.Entry(kc.t.kd, ev) }

// Exit fires the KTAU exit macro for ev.
func (kc *KCtx) Exit(ev ktau.EventID) { kc.k.m.Exit(kc.t.kd, ev) }

// Atomic fires the KTAU atomic-event macro for ev with value v.
func (kc *KCtx) Atomic(ev ktau.EventID, v float64) { kc.k.m.Atomic(kc.t.kd, ev, v) }

// Wait blocks on wq until woken: a voluntary context switch. Wakeups may be
// spurious (signal delivery interrupts sleep), so callers must re-check
// their condition in a loop.
func (kc *KCtx) Wait(wq *WaitQueue) {
	kc.t.call(request{kind: reqWait, wq: wq})
}

// Sleep blocks for d in kernel mode.
func (kc *KCtx) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	kc.t.call(request{kind: reqSleep, d: d})
}

// SyscallEvent returns (registering on first use) the instrumentation point
// for the named system call.
func (k *Kernel) SyscallEvent(name string) ktau.EventID {
	if k.sysEvents == nil {
		k.sysEvents = make(map[string]ktau.EventID)
	}
	if ev, ok := k.sysEvents[name]; ok {
		return ev
	}
	ev := k.m.Event(name, ktau.GroupSyscall)
	k.sysEvents[name] = ev
	return ev
}
