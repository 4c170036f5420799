package kernel

import (
	"fmt"
	"time"

	"ktau/internal/ktau"
	"ktau/internal/sim"
)

// Kernel is one simulated node's operating system instance.
type Kernel struct {
	Node string // node name, e.g. "ccn10"

	eng    *sim.Engine
	params Params
	rng    *sim.RNG

	cpus    []*CPU
	tasks   map[int]*Task
	order   []*Task // creation order, for deterministic iteration
	nextPID int

	m *ktau.Measurement

	// built-in instrumentation points
	evSchedVol   ktau.EventID
	evSchedInvol ktau.EventID
	evSchedTick  ktau.EventID
	evIRQTimer   ktau.EventID
	evSoftirq    ktau.EventID
	evPageFault  ktau.EventID
	evSignal     ktau.EventID
	devIRQEvents map[string]ktau.EventID
	sysEvents    map[string]ktau.EventID
	irqRR        int // round-robin cursor for balanced device interrupts

	// ohDebt accumulates KTAU measurement overhead (converted from cycles)
	// that has been charged but not yet folded into a scheduled duration.
	ohDebt time.Duration

	// slow stretches every scheduled duration on this node (1 = full speed);
	// the fault layer uses it to model a thermally-throttled or misconfigured
	// slow node.
	slow float64

	shutdown bool
	crashed  bool
	// crashedSeen is the barrier-published copy of crashed: under windowed
	// parallel execution other nodes must not read crashed mid-window (the
	// answer would depend on worker interleaving), so they read this copy,
	// refreshed by the cluster at every window barrier.
	crashedSeen bool

	// Stats are node-global counters used by tests and experiments.
	Stats struct {
		ContextSwitches uint64
		TimerIRQs       uint64
		DevIRQs         uint64
		Softirqs        uint64
		Steals          uint64
	}
}

// NewKernel boots a node: creates CPUs, idle tasks and the KTAU measurement
// system configured by mopts.
func NewKernel(eng *sim.Engine, node string, params Params, rng *sim.RNG, mopts ktau.Options) *Kernel {
	if params.HZ <= 0 || params.NumCPUs <= 0 {
		panic("kernel: Params must be built from DefaultParams (HZ/NumCPUs unset)")
	}
	if params.TickInterval <= 0 || params.Timeslice <= 0 {
		panic("kernel: TickInterval and Timeslice must be positive")
	}
	k := &Kernel{
		Node:         node,
		eng:          eng,
		params:       params,
		rng:          rng.Stream("kernel/" + node),
		tasks:        make(map[int]*Task),
		nextPID:      100,
		devIRQEvents: make(map[string]ktau.EventID),
	}
	if mopts.Overhead == nil && mopts.Compiled != 0 {
		mopts.Overhead = ktau.DefaultOverheadModel(k.rng.Stream("ktau-overhead"))
	}
	k.m = ktau.NewMeasurement(k, mopts)
	k.m.SetCounterSource(counterSource{k})

	k.evSchedVol = k.m.Event("schedule_vol", ktau.GroupSched)
	k.evSchedInvol = k.m.Event("schedule", ktau.GroupSched)
	k.evSchedTick = k.m.Event("scheduler_tick", ktau.GroupSched)
	k.evIRQTimer = k.m.Event("do_IRQ[timer]", ktau.GroupIRQ)
	k.evSoftirq = k.m.Event("do_softirq", ktau.GroupBH)
	k.evPageFault = k.m.Event("do_page_fault", ktau.GroupExc)
	k.evSignal = k.m.Event("signal_deliver", ktau.GroupSignal)

	for i := 0; i < params.NumCPUs; i++ {
		c := &CPU{ID: i, k: k}
		idle := &Task{
			k:     k,
			pid:   900000 + i,
			name:  fmt.Sprintf("swapper/%d", i),
			kind:  KindIdle,
			state: StateRunning,
			cpuID: i,
		}
		idle.kd = k.m.CreateTask(idle.pid, idle.name)
		c.idle = idle
		k.cpus = append(k.cpus, c)
		k.startTicks(c)
	}
	return k
}

// Engine returns the simulation engine driving this kernel.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Params returns the kernel's configuration (a copy).
func (k *Kernel) Params() Params { return k.params }

// Ktau returns the node's KTAU measurement system.
func (k *Kernel) Ktau() *ktau.Measurement { return k.m }

// Now returns current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// NumCPUs returns the number of processors the kernel booted with.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// CPU returns processor i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// Cycles implements ktau.Env: the virtual Time Stamp Counter.
func (k *Kernel) Cycles() int64 {
	return sim.CyclesAt(k.eng.Now().Duration(), k.params.HZ)
}

// AddOverhead implements ktau.Env: measurement cost is accumulated as debt
// and folded into the next scheduled duration on this node, so compiled-in
// instrumentation perturbs virtual time exactly as it would real time.
func (k *Kernel) AddOverhead(cycles int64) {
	if cycles <= 0 {
		return
	}
	k.ohDebt += sim.DurationOfCycles(cycles, k.params.HZ)
}

// takeDebt consumes the accumulated measurement-overhead debt.
func (k *Kernel) takeDebt() time.Duration {
	d := k.ohDebt
	k.ohDebt = 0
	return d
}

// CyclesOf converts a duration to cycles at this node's clock.
func (k *Kernel) CyclesOf(d time.Duration) int64 {
	return sim.CyclesAt(d, k.params.HZ)
}

// DurationOf converts cycles at this node's clock to a duration.
func (k *Kernel) DurationOf(cycles int64) time.Duration {
	return sim.DurationOfCycles(cycles, k.params.HZ)
}

// jitter applies the configured bounded cost noise to d.
func (k *Kernel) jitter(d time.Duration) time.Duration {
	return time.Duration(k.rng.Jitter(int64(d), k.params.CostJitter))
}

// Tasks returns all live tasks in creation order (excluding idle tasks).
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.order))
	for _, t := range k.order {
		if t.state != StateZombie {
			out = append(out, t)
		}
	}
	return out
}

// AllTasks returns every task ever created in creation order, including
// exited ones (excluding idle tasks).
func (k *Kernel) AllTasks() []*Task {
	return k.AppendAllTasks(make([]*Task, 0, len(k.order)))
}

// AppendAllTasks appends every task ever created, in creation order, to dst
// and returns the result: AllTasks into storage the caller reuses.
func (k *Kernel) AppendAllTasks(dst []*Task) []*Task { return append(dst, k.order...) }

// FindTask returns the live or exited task with the given pid, or nil.
func (k *Kernel) FindTask(pid int) *Task { return k.tasks[pid] }

// DevIRQEvent returns (registering on first use) the instrumentation point
// for a device interrupt source such as "eth0".
func (k *Kernel) DevIRQEvent(src string) ktau.EventID {
	if ev, ok := k.devIRQEvents[src]; ok {
		return ev
	}
	ev := k.m.Event("do_IRQ["+src+"]", ktau.GroupIRQ)
	k.devIRQEvents[src] = ev
	return ev
}

// Crash halts the node at the current virtual instant, as a power failure
// or panic would: no further instruction executes. Every in-flight activity
// — running work segments, pending interrupts, sleeps about to expire — is
// silently discarded; task programs stay suspended (and task states frozen)
// until Shutdown unwinds them. Crash is what the fault layer calls for a
// node-crash fault; it is irreversible.
func (k *Kernel) Crash() {
	if k.crashed {
		return
	}
	k.crashed = true
	for _, c := range k.cpus {
		k.eng.Cancel(c.completion)
		c.completion = sim.Handle{}
	}
}

// Crashed reports whether the node has halted.
func (k *Kernel) Crashed() bool { return k.crashed }

// PublishView refreshes the kernel state other nodes are allowed to read.
// The cluster calls it at every window barrier (and once at boot).
func (k *Kernel) PublishView() { k.crashedSeen = k.crashed }

// CrashedSeen reports the barrier-published crash state: what the rest of
// the cluster is allowed to know about this node mid-window. It lags
// Crashed by at most one lookahead window.
func (k *Kernel) CrashedSeen() bool { return k.crashedSeen }

// dead reports whether the node should execute nothing further: every
// engine-callback entry point checks it so events scheduled before a crash
// (or shutdown) become no-ops.
func (k *Kernel) dead() bool { return k.shutdown || k.crashed }

// SetSlowdown stretches all subsequent scheduled durations on this node by
// factor (CPU work, interrupt handlers, context switches). factor <= 1
// restores full speed. Segments already in flight keep their original pace;
// the change applies from their next (re)start.
func (k *Kernel) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	k.slow = factor
}

// Slowdown returns the current slowdown factor (1 = full speed).
func (k *Kernel) Slowdown() float64 {
	if k.slow < 1 {
		return 1
	}
	return k.slow
}

// stretch applies the node's slowdown factor to a scheduled duration.
func (k *Kernel) stretch(d time.Duration) time.Duration {
	if k.slow <= 1 {
		return d
	}
	return time.Duration(float64(d) * k.slow)
}

// Shutdown stops every task's coroutine: a suspended program unwinds, its
// deferred functions run, and its goroutine is gone by the time Shutdown
// returns. After Shutdown the kernel must not be used further; it exists so
// that tests and repeated experiment runs do not leak goroutines.
func (k *Kernel) Shutdown() {
	if k.shutdown {
		return
	}
	k.shutdown = true
	for _, t := range k.order {
		t.stop()
	}
}

// startTicks schedules the periodic timer interrupt for a CPU. Ticks are
// staggered per CPU by a fraction of the tick interval, as real local APIC
// timers are.
func (k *Kernel) startTicks(c *CPU) {
	offset := time.Duration(int64(k.params.TickInterval) * int64(c.ID) / int64(len(k.cpus)+1))
	c.tickPost = func() { k.schedulerTick(c) }
	var fire func()
	fire = func() {
		if k.dead() {
			return
		}
		k.timerIRQ(c)
		k.eng.After(k.params.TickInterval, fire)
	}
	k.eng.After(k.params.TickInterval+offset, fire)
}

// timerIRQ raises the periodic timer interrupt on c. The handler charges the
// interrupted task, runs scheduler bookkeeping and applies timeslice expiry.
func (k *Kernel) timerIRQ(c *CPU) {
	k.Stats.TimerIRQs++
	k.raiseIRQOn(c, irqReq{
		ev:   k.evIRQTimer,
		cost: k.jitter(k.params.TimerIRQCost),
		post: c.tickPost,
	})
}

// RaiseDevIRQ raises a device interrupt (e.g. from a NIC) with an optional
// bottom-half handler. The servicing CPU is chosen by the node's interrupt
// routing policy: pinned, balanced round-robin, or CPU0.
func (k *Kernel) RaiseDevIRQ(src string, bh func(*BHCtx)) {
	if k.dead() {
		return
	}
	k.Stats.DevIRQs++
	c := k.routeIRQ()
	k.raiseIRQOn(c, irqReq{
		ev:   k.DevIRQEvent(src),
		cost: k.jitter(k.params.DevIRQCost),
		bh:   bh,
	})
}

// routeIRQ picks the CPU that services the next device interrupt.
func (k *Kernel) routeIRQ() *CPU {
	if k.params.IRQPinCPU >= 0 && k.params.IRQPinCPU < len(k.cpus) {
		return k.cpus[k.params.IRQPinCPU]
	}
	if k.params.IRQBalance {
		k.irqRR++
		return k.cpus[k.irqRR%len(k.cpus)]
	}
	return k.cpus[0]
}

var _ ktau.Env = (*Kernel)(nil)
