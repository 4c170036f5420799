// Package kernel implements a deterministic discrete-event simulation of a
// Linux-like operating system kernel: per-CPU runqueues with timeslice-based
// preemption, voluntary and involuntary context switches, timer and device
// interrupts, softirq (bottom-half) processing, system-call dispatch, wait
// queues, exceptions and signals.
//
// The simulated kernel is the substrate on which the KTAU measurement system
// (package ktau) is exercised: every kernel path a real KTAU patch would
// instrument — schedule(), do_IRQ, do_softirq, sys_*, the TCP routines in
// package tcpsim — calls the same entry/exit, atomic and mapping macros the
// paper describes, and measurement overhead feeds back into virtual time so
// perturbation studies are faithful.
//
// Simulated processes are coroutines of the engine (iter.Pull): the engine
// resumes a task's program, which runs until its next request and hands
// control back, so exactly one of them (engine or one task) runs at any
// instant and simulations are fully deterministic.
package kernel

import "time"

// Params are the tunable constants of one simulated node's kernel. Zero
// values are replaced by the defaults from DefaultParams.
type Params struct {
	// HZ is the CPU clock rate in cycles per second (e.g. 450e6 for the
	// Chiba-City Pentium III nodes).
	HZ int64
	// NumCPUs is the number of processors the kernel detects. (The Chiba
	// anomaly of paper §5.2 is reproduced by setting this to 1 on a node the
	// job launcher believes has 2.)
	NumCPUs int

	// TickInterval is the timer-interrupt period (1/HZ_sched; 1ms models a
	// HZ=1000 Linux 2.6 kernel).
	TickInterval time.Duration
	// Timeslice is the round-robin quantum granted to a task at dispatch.
	// The default is 20 ms rather than the era's 100 ms because the
	// simulated workloads compress real runtimes by roughly 100x; keeping
	// the quantum proportionally smaller preserves the preemption dynamics
	// (CPU-bound tasks sharing a processor ping-pong within a run).
	Timeslice time.Duration
	// CtxSwitchCost is the direct cost of a context switch (register and
	// address-space switch plus cache disturbance amortised).
	CtxSwitchCost time.Duration
	// SyscallEntryCost / SyscallExitCost model the kernel-crossing trap cost.
	SyscallEntryCost time.Duration
	SyscallExitCost  time.Duration
	// TimerIRQCost is the hardware handler cost of a timer interrupt;
	// SchedTickCost is the scheduler bookkeeping performed on each tick.
	TimerIRQCost  time.Duration
	SchedTickCost time.Duration
	// DevIRQCost is the hardware handler cost of a device (NIC) interrupt.
	DevIRQCost time.Duration

	// IRQBalance spreads device interrupts round-robin over CPUs; when
	// false, all device interrupts are serviced by CPU0 (the Chiba default
	// that produces the bimodal distribution of Fig. 8).
	IRQBalance bool
	// IRQPinCPU, when >= 0, forces all device interrupts onto the given CPU
	// regardless of IRQBalance (the "128x1 Pin,IRQ CPU1" configuration of
	// Fig. 9/10).
	IRQPinCPU int

	// WakePreempt lets a freshly woken task preempt a long-running current
	// task (the 2.6 interactive-sleeper bonus, coarsely).
	WakePreempt bool
	// MinPreemptRun is how long the current task must have run before a
	// waking task may preempt it directly.
	MinPreemptRun time.Duration

	// PageFaultRate is the expected number of (minor) page-fault exceptions
	// per second of user compute; PageFaultCost is the handler cost.
	PageFaultRate float64
	PageFaultCost time.Duration
	// SignalCost is the cost of delivering one signal.
	SignalCost time.Duration

	// Counters model the node's virtual performance counters (PAPI-style).
	Counters CounterParams

	// SMPMemContention is the fractional slowdown of a user compute segment
	// while another CPU of the same node is also executing user compute:
	// the shared front-side bus of a dual Pentium III. It is what keeps a
	// perfectly tuned two-process-per-node placement from matching two
	// single-process nodes (the residual of Table 2's Pin,I-Bal rows).
	SMPMemContention float64

	// CostJitter is the ± fraction of bounded uniform noise applied to
	// modelled costs.
	CostJitter float64
}

// DefaultParams returns parameters modelling one Chiba-City node: a dual
// 450 MHz Pentium III running a HZ=1000 Linux 2.6 kernel.
func DefaultParams() Params {
	return Params{
		HZ:               450_000_000,
		NumCPUs:          2,
		TickInterval:     time.Millisecond,
		Timeslice:        20 * time.Millisecond,
		CtxSwitchCost:    6 * time.Microsecond,
		SyscallEntryCost: 700 * time.Nanosecond,
		SyscallExitCost:  500 * time.Nanosecond,
		TimerIRQCost:     2 * time.Microsecond,
		SchedTickCost:    800 * time.Nanosecond,
		DevIRQCost:       15 * time.Microsecond,
		IRQBalance:       false,
		IRQPinCPU:        -1,
		WakePreempt:      true,
		MinPreemptRun:    100 * time.Microsecond,
		PageFaultRate:    40,
		PageFaultCost:    1500 * time.Nanosecond,
		SignalCost:       2 * time.Microsecond,
		Counters:         DefaultCounterParams(),
		SMPMemContention: 0.12,
		CostJitter:       0.10,
	}
}

// Params values should be constructed by mutating DefaultParams() rather
// than from a zero literal: several fields (WakePreempt, IRQPinCPU) have
// meaningful zero values, so no implicit defaulting is performed. NewKernel
// validates the invariants it needs.
