package kernel

import (
	"ktau/internal/sim"
)

// SwitchReason classifies why a task left a CPU: voluntarily (it blocked
// waiting for an event, e.g. message arrival or I/O) or involuntarily (it
// was preempted). The distinction drives Figures 2-C, 5 and 6 of the paper.
type SwitchReason uint8

const (
	// SwitchNone means the task has not been switched out yet.
	SwitchNone SwitchReason = iota
	// SwitchVoluntary marks a block: the task yielded the CPU waiting for
	// an event.
	SwitchVoluntary
	// SwitchInvoluntary marks a preemption: timeslice expiry or a higher
	// priority wakeup took the CPU away.
	SwitchInvoluntary
)

// String names the switch reason.
func (r SwitchReason) String() string {
	switch r {
	case SwitchVoluntary:
		return "voluntary"
	case SwitchInvoluntary:
		return "involuntary"
	default:
		return "none"
	}
}

// enqueue appends t to c's runqueue.
func (k *Kernel) enqueue(c *CPU, t *Task) {
	t.state = StateRunnable
	t.cpuID = c.ID
	c.rq = append(c.rq, t)
}

// reschedule arranges for an idle CPU to pick up work. It is a no-op when
// the CPU is busy, already switching, or in interrupt context (the
// return-from-interrupt path re-invokes it).
func (k *Kernel) reschedule(c *CPU) {
	if k.dead() || c.curr != nil || c.switching || c.irqDepth > 0 {
		return
	}
	t := k.pickTask(c)
	if t == nil {
		return
	}
	k.switchTo(c, t)
}

// pickTask pops the next runnable task for c: the head of its own runqueue,
// or a task stolen from the busiest sibling CPU that allows running on c.
func (k *Kernel) pickTask(c *CPU) *Task {
	if len(c.rq) > 0 {
		t := c.rq[0]
		n := copy(c.rq, c.rq[1:])
		c.rq[n] = nil
		c.rq = c.rq[:n]
		return t
	}
	// Idle balancing: steal from the most loaded sibling.
	var donor *CPU
	for _, o := range k.cpus {
		if o == c || len(o.rq) == 0 {
			continue
		}
		if donor == nil || len(o.rq) > len(donor.rq) {
			donor = o
		}
	}
	if donor == nil {
		return nil
	}
	for i, t := range donor.rq {
		if t.allowedOn(c.ID) {
			donor.rq = append(donor.rq[:i], donor.rq[i+1:]...)
			k.Stats.Steals++
			return t
		}
	}
	return nil
}

// switchTo begins a context switch on c to task t: the switch cost elapses,
// then t is dispatched. If an interrupt arrives meanwhile, the dispatch is
// deferred to the return-from-interrupt path.
func (k *Kernel) switchTo(c *CPU, t *Task) {
	c.switching = true
	c.switchTarget = t
	cost := k.stretch(k.jitter(k.params.CtxSwitchCost) + k.takeDebt())
	k.eng.AfterCall(cost, dispatchSwitchCB, c)
}

// completeSwitch is the dispatch half of switchTo, fired when the switch
// cost has elapsed.
func (k *Kernel) completeSwitch(c *CPU, t *Task) {
	if k.dead() {
		return
	}
	c.switching = false
	if c.irqDepth > 0 {
		c.pendingDispatch = t
		return
	}
	k.dispatch(c, t)
}

// dispatch installs t as the current task on c and lets it continue:
// resuming a preempted work segment, running a parked continuation, or
// resuming the task's program until its next request.
func (k *Kernel) dispatch(c *CPU, t *Task) {
	if c.curr != nil {
		panic("kernel: dispatch onto busy CPU")
	}
	k.Stats.ContextSwitches++
	if c.lastRan != t {
		t.ctr[CtrL2Misses] += k.params.Counters.SwitchL2Burst
	}
	c.lastRan = t
	c.curr = t
	c.needResched = false
	t.state = StateRunning
	t.cpuID = c.ID
	t.dispatchedAt = k.eng.Now()
	if t.timesliceLeft <= 0 {
		t.timesliceLeft = k.params.Timeslice
	}

	// Switched-in accounting: the schedule (involuntary) or schedule_vol
	// (voluntary) event entered at switch-out is closed now, crediting the
	// interval spent off-CPU — the paper's §5.1 instrumentation. Because the
	// event sits on the task's activation stack, the wait nests under
	// whatever kernel routine blocked (e.g. tcp_recvmsg inside MPI_Recv),
	// keeping exclusive times and event mapping correct.
	if t.outReason != SwitchNone {
		wait := k.eng.Now().Sub(t.switchedOutAt)
		switch t.outReason {
		case SwitchVoluntary:
			k.m.Exit(t.kd, k.evSchedVol)
			t.VolWait += wait
			t.VolSwitches++
		case SwitchInvoluntary:
			k.m.Exit(t.kd, k.evSchedInvol)
			t.InvolWait += wait
			t.InvolSwitches++
		}
		t.outReason = SwitchNone
	}

	k.deliverSignals(c, t)
	if t.state == StateZombie {
		// A fatal signal killed the task before it ran.
		return
	}

	switch {
	case t.work != nil:
		k.startWork(c)
	case t.resumeFn != nil:
		fn := t.resumeFn
		t.resumeFn = nil
		fn()
	default:
		k.activate(t)
	}
}

// preemptOut removes the current task from c involuntarily (its partially
// consumed work segment is preserved), requeues it and switches to the next
// runnable task.
func (k *Kernel) preemptOut(c *CPU) {
	t := c.curr
	if t == nil {
		panic("kernel: preemptOut with no current task")
	}
	k.suspendWork(c)
	t.markSwitchedOut(k.eng.Now(), SwitchInvoluntary)
	k.m.Entry(t.kd, k.evSchedInvol)
	c.curr = nil
	k.enqueue(c, t)
	if next := k.pickTask(c); next != nil {
		k.switchTo(c, next)
	}
}

// blockCurrent removes the current task from c voluntarily (it is waiting
// for an event) and switches to the next runnable task.
func (k *Kernel) blockCurrent(c *CPU, t *Task) {
	if c.curr != t {
		panic("kernel: blockCurrent task mismatch")
	}
	k.suspendWork(c) // defensive: blocked tasks should have no active segment
	t.markSwitchedOut(k.eng.Now(), SwitchVoluntary)
	k.m.Entry(t.kd, k.evSchedVol)
	t.state = StateSleeping
	c.curr = nil
	if next := k.pickTask(c); next != nil {
		k.switchTo(c, next)
	}
}

// Wake makes a sleeping task runnable with no waker-CPU affinity hint.
func (k *Kernel) Wake(t *Task) { k.WakeFrom(t, -1) }

// WakeFrom makes a sleeping task runnable and places it on a CPU. Placement
// follows 2.6-style wake affinity: the waking CPU if it is idle (interrupt
// wakeups pull the wakee toward the CPU whose cache holds the fresh data,
// e.g. the softirq that delivered its packet), else its last CPU if idle,
// else the least-loaded allowed CPU. A long-running current task may be
// preempted (wake preemption).
func (k *Kernel) WakeFrom(t *Task, wakerCPU int) {
	if k.dead() || t.state != StateSleeping {
		return
	}
	// A stalled task's wakeups are parked until the stall window closes —
	// the fault layer's "daemon stall" knob. Multiple wake sources collapse
	// into one deferred wake, like wakeups missed while descheduled.
	if t.stalledUntil > k.eng.Now() {
		if !t.stallWakePending {
			t.stallWakePending = true
			k.eng.At(t.stalledUntil, func() {
				t.stallWakePending = false
				k.WakeFrom(t, -1)
			})
		}
		return
	}
	c := k.placeTask(t, wakerCPU)
	k.enqueue(c, t)
	if c.curr == nil {
		k.reschedule(c)
		return
	}
	if !k.params.WakePreempt {
		return
	}
	curr := c.curr
	ranFor := k.eng.Now().Sub(curr.dispatchedAt)
	if ranFor < k.params.MinPreemptRun {
		return
	}
	if c.irqDepth > 0 || c.switching {
		c.needResched = true
		return
	}
	if curr.work != nil && curr.work.preemptible {
		k.preemptOut(c)
	} else {
		c.needResched = true
	}
}

// placeTask chooses the CPU a woken task should run on.
func (k *Kernel) placeTask(t *Task, wakerCPU int) *CPU {
	if wakerCPU >= 0 && wakerCPU < len(k.cpus) && t.allowedOn(wakerCPU) {
		c := k.cpus[wakerCPU]
		if c.curr == nil && len(c.rq) == 0 {
			return c
		}
	}
	last := t.cpuID
	if last >= 0 && last < len(k.cpus) && t.allowedOn(last) {
		c := k.cpus[last]
		if c.curr == nil && len(c.rq) == 0 {
			return c
		}
	}
	var best *CPU
	for _, c := range k.cpus {
		if !t.allowedOn(c.ID) {
			continue
		}
		if best == nil || c.load() < best.load() ||
			(c.load() == best.load() && c.ID == last) {
			best = c
		}
	}
	if best == nil {
		panic("kernel: task affinity mask excludes every CPU")
	}
	return best
}

// schedulerTick is the per-tick scheduler bookkeeping run from the timer
// interrupt: it charges the tick cost, ages the current task's timeslice and
// requests rescheduling on expiry.
func (k *Kernel) schedulerTick(c *CPU) {
	t := c.curr
	td := c.profTask().kd
	k.m.AddSpan(td, k.evSchedTick, k.CyclesOf(k.params.SchedTickCost))
	if t == nil {
		return
	}
	t.timesliceLeft -= k.params.TickInterval
	if t.timesliceLeft <= 0 && len(c.rq) > 0 {
		c.needResched = true
	}
}

// deliverSignals drains a task's pending signals at a kernel→user boundary.
func (k *Kernel) deliverSignals(c *CPU, t *Task) {
	for len(t.pendingSignals) > 0 {
		sig := t.pendingSignals[0]
		n := copy(t.pendingSignals, t.pendingSignals[1:])
		t.pendingSignals = t.pendingSignals[:n]
		k.m.AddSpan(t.kd, k.evSignal, k.CyclesOf(k.params.SignalCost))
		t.SignalsTaken++
		if h := t.sigHandlers[sig]; h != nil {
			h(sig)
		}
	}
}

// markSwitchedOut stamps a task as it leaves a CPU.
func (t *Task) markSwitchedOut(now sim.Time, reason SwitchReason) {
	t.switchedOutAt = now
	t.outReason = reason
	if reason == SwitchInvoluntary {
		t.state = StateRunnable
	}
}
