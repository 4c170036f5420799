package kernel

import (
	"time"

	"ktau/internal/ktau"
	"ktau/internal/sim"
)

// workSeg is one CPU-time segment a task must consume: a user compute burst
// or a kernel-mode section. User segments are preemptible at interrupt
// boundaries; kernel segments run to completion (2.6-style non-preemptible
// kernel), with rescheduling deferred to the next boundary.
type workSeg struct {
	remaining   time.Duration
	preemptible bool
	user        bool
	faults      int     // page-fault exceptions folded into this segment
	rate        float64 // wall-time per work-unit while running (>= 1; SMP memory contention)
	then        func()  // continuation once fully consumed
}

// irqReq is one pending hardware interrupt on a CPU.
type irqReq struct {
	ev   ktau.EventID
	cost time.Duration
	bh   func(*BHCtx) // bottom-half work, run after the hard handler
	post func()       // kernel-internal hook (scheduler tick)
}

// CPU is one simulated processor.
type CPU struct {
	ID int
	k  *Kernel

	curr *Task // nil when idle
	idle *Task // per-CPU idle task, charged for interrupts while idle
	rq   []*Task

	workStart  sim.Time   // when the active segment (re)started
	completion sim.Handle // pending completion of the active segment

	irqDepth        int
	irqQueue        []irqReq
	switching       bool  // a dispatch event is in flight
	pendingDispatch *Task // dispatch deferred because an IRQ was in service

	// In-service interrupt state. IRQ servicing is strictly serialized per
	// CPU (one hard handler or bottom half at a time), so a single set of
	// slots — including a reused BHCtx — replaces the per-interrupt closures
	// the service path used to allocate.
	irqCur   irqReq
	irqTd    *ktau.TaskData
	irqStart sim.Time
	bh       BHCtx

	// switchTarget is the task a scheduled dispatch event will switch to (at
	// most one dispatch is in flight per CPU, guarded by switching).
	switchTarget *Task

	// tickPost is the per-CPU scheduler-tick hook, created once at boot and
	// reused by every timer interrupt.
	tickPost func()

	needResched bool
	lastRan     *Task // previous occupant, for cold-cache accounting

	// IRQTime accumulates total interrupt-context time on this CPU.
	IRQTime time.Duration
}

// load is the scheduling load metric: runqueue length plus the running task.
func (c *CPU) load() int {
	n := len(c.rq)
	if c.curr != nil {
		n++
	}
	return n
}

// profTask returns the task whose KTAU profile is charged for activity
// occurring right now on this CPU (the current task, or the idle task).
func (c *CPU) profTask() *Task {
	if c.curr != nil {
		return c.curr
	}
	return c.idle
}

// ---- work segment execution ----

// startWork begins (or resumes) consuming the current task's work segment.
// Accumulated measurement-overhead debt is folded into the segment.
func (k *Kernel) startWork(c *CPU) {
	t := c.curr
	if t == nil || t.work == nil {
		panic("kernel: startWork without current work")
	}
	if c.completion.Pending() {
		panic("kernel: startWork with completion already pending")
	}
	t.work.remaining += k.takeDebt()
	t.work.rate = k.Slowdown()
	if t.work.user && k.params.SMPMemContention > 0 && k.siblingBusyUser(c) {
		t.work.rate *= 1 + k.params.SMPMemContention
	}
	c.workStart = k.eng.Now()
	wall := time.Duration(float64(t.work.remaining) * t.work.rate)
	c.completion = k.eng.AfterCall(wall, finishWorkCB, c)
}

// Static event callbacks: the CPU pointer rides in the event's argument
// slot, so hot-path scheduling allocates no closures.
func finishWorkCB(arg any) { c := arg.(*CPU); c.k.finishWork(c) }
func irqHardEndCB(arg any) { c := arg.(*CPU); c.k.irqHardEnd(c) }
func irqBHEndCB(arg any)   { c := arg.(*CPU); c.k.irqBHEnd(c) }
func dispatchSwitchCB(arg any) {
	c := arg.(*CPU)
	t := c.switchTarget
	c.switchTarget = nil
	c.k.completeSwitch(c, t)
}

// siblingBusyUser reports whether any other CPU of this node is currently
// executing a user compute segment (shared-memory-bus contention).
func (k *Kernel) siblingBusyUser(c *CPU) bool {
	for _, o := range k.cpus {
		if o == c || o.curr == nil || !o.completion.Pending() {
			continue
		}
		if w := o.curr.work; w != nil && w.user {
			return true
		}
	}
	return false
}

// suspendWork pauses the active segment (interrupt arrival or preemption),
// updating the remaining time and the task's time accounting.
func (k *Kernel) suspendWork(c *CPU) {
	t := c.curr
	if t == nil || t.work == nil || !c.completion.Pending() {
		return
	}
	wall := k.eng.Now().Sub(c.workStart)
	k.eng.Cancel(c.completion)
	c.completion = sim.Handle{}
	rate := t.work.rate
	if rate < 1 {
		rate = 1
	}
	consumed := time.Duration(float64(wall) / rate)
	if consumed > t.work.remaining {
		consumed = t.work.remaining
	}
	t.work.remaining -= consumed
	t.account(wall, t.work.user)
}

// finishWork fires when the active segment has been fully consumed.
func (k *Kernel) finishWork(c *CPU) {
	if k.dead() {
		return
	}
	t := c.curr
	if t == nil || t.work == nil {
		panic("kernel: finishWork without current work")
	}
	w := t.work
	// The wall time occupied equals the scheduled duration (remaining work
	// stretched by the contention rate).
	t.account(k.eng.Now().Sub(c.workStart), w.user)
	c.completion = sim.Handle{}
	t.work = nil

	// Deliver the page-fault exceptions folded into the segment.
	for i := 0; i < w.faults; i++ {
		k.m.AddSpan(t.kd, k.evPageFault, k.CyclesOf(k.params.PageFaultCost))
	}
	// Deliver pending signals at the kernel→user boundary.
	k.deliverSignals(c, t)

	if c.needResched && len(c.rq) > 0 {
		// Preemption point at segment completion: park the continuation and
		// switch. The continuation runs when the task is dispatched again.
		t.resumeFn = w.then
		k.preemptOut(c)
		return
	}
	w.then()
}

// ---- interrupt servicing ----

// raiseIRQOn queues a hardware interrupt on c and begins servicing if the
// CPU is not already in interrupt context.
func (k *Kernel) raiseIRQOn(c *CPU, r irqReq) {
	if k.dead() {
		return
	}
	c.irqQueue = append(c.irqQueue, r)
	if c.irqDepth == 0 {
		c.irqDepth = 1
		k.suspendWork(c)
		k.serviceNextIRQ(c)
	}
}

// serviceNextIRQ runs the next queued interrupt: hard handler, then the
// bottom half, then either the next interrupt or the return-from-interrupt
// path. The in-service request lives in per-CPU slots (irqCur/irqTd/
// irqStart) rather than captured closures — servicing is strictly
// serialized per CPU, so one set of slots suffices.
func (k *Kernel) serviceNextIRQ(c *CPU) {
	if len(c.irqQueue) == 0 {
		k.irqReturn(c)
		return
	}
	r := c.irqQueue[0]
	n := copy(c.irqQueue, c.irqQueue[1:])
	c.irqQueue[n] = irqReq{}
	c.irqQueue = c.irqQueue[:n]
	c.irqCur = r
	c.irqTd = c.profTask().kd
	c.irqStart = k.eng.Now()
	k.m.Entry(c.irqTd, r.ev)
	dur := k.stretch(r.cost + k.takeDebt())
	k.eng.AfterCall(dur, irqHardEndCB, c)
}

// irqHardEnd fires when the hard handler's cost has elapsed: run the
// kernel-internal hook, then either start the bottom half or move on.
func (k *Kernel) irqHardEnd(c *CPU) {
	if k.dead() {
		return
	}
	r := c.irqCur
	k.m.Exit(c.irqTd, r.ev)
	if r.post != nil {
		r.post()
	}
	if r.bh == nil {
		c.IRQTime += k.eng.Now().Sub(c.irqStart)
		c.irqCur = irqReq{}
		k.serviceNextIRQ(c)
		return
	}
	// Bottom half (do_softirq): the handler computes its cost and effects;
	// wakeups are applied when the cost has elapsed.
	k.Stats.Softirqs++
	k.m.Entry(c.irqTd, k.evSoftirq)
	b := &c.bh
	b.k, b.c, b.td = k, c, c.irqTd
	b.cost = 0
	b.defers = b.defers[:0]
	r.bh(b)
	bhDur := k.stretch(b.cost + k.takeDebt())
	k.eng.AfterCall(bhDur, irqBHEndCB, c)
}

// irqBHEnd fires when the bottom half's cost has elapsed: apply deferred
// wakeups, then service the next queued interrupt.
func (k *Kernel) irqBHEnd(c *CPU) {
	if k.dead() {
		return
	}
	b := &c.bh
	k.m.Exit(b.td, k.evSoftirq)
	c.IRQTime += k.eng.Now().Sub(c.irqStart)
	defs := b.defers
	for i, fn := range defs {
		defs[i] = nil
		fn()
	}
	c.irqCur = irqReq{}
	k.serviceNextIRQ(c)
}

// irqReturn is the return-from-interrupt path: apply preemption if needed,
// otherwise resume the interrupted work.
func (k *Kernel) irqReturn(c *CPU) {
	c.irqDepth = 0
	if t := c.pendingDispatch; t != nil {
		c.pendingDispatch = nil
		k.dispatch(c, t)
		return
	}
	t := c.curr
	if t == nil {
		k.reschedule(c)
		return
	}
	if t.work == nil {
		// The task was between segments when interrupted; nothing to
		// resume — a dispatch or continuation event is in flight.
		return
	}
	if c.needResched && t.work.preemptible && len(c.rq) > 0 {
		k.preemptOut(c)
		return
	}
	k.startWork(c)
}

// BHCtx is the execution context handed to bottom-half (softirq) handlers,
// e.g. the TCP receive path. Handlers declare their processing cost with
// Span/Charge (time then elapses in virtual time) and defer their wakeups to
// the end of the softirq.
type BHCtx struct {
	k      *Kernel
	c      *CPU
	td     *ktau.TaskData
	cost   time.Duration
	defers []func()
}

// Kernel returns the owning kernel.
func (b *BHCtx) Kernel() *Kernel { return b.k }

// CPU returns the processor servicing the softirq.
func (b *BHCtx) CPU() *CPU { return b.c }

// Charge adds d of processing cost to the softirq without attributing it to
// a named instrumentation point.
func (b *BHCtx) Charge(d time.Duration) { b.cost += d }

// Span attributes d of processing cost to the instrumentation point ev in
// the interrupted process's profile (bottom halves run in the context of
// whatever process was current, exactly as KTAU charges them).
func (b *BHCtx) Span(ev ktau.EventID, d time.Duration) {
	d = b.k.jitter(d)
	b.k.m.AddSpan(b.td, ev, b.k.CyclesOf(d))
	b.cost += d
}

// Atomic records an atomic event (e.g. packet size) in the interrupted
// process's profile.
func (b *BHCtx) Atomic(ev ktau.EventID, v float64) {
	b.k.m.Atomic(b.td, ev, v)
}

// Defer schedules fn to run when the softirq's cost has elapsed; wakeups
// must go through Defer so woken tasks cannot run before the softirq
// finishes.
func (b *BHCtx) Defer(fn func()) { b.defers = append(b.defers, fn) }
