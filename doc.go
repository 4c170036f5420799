// Package ktau is a full reproduction, in simulation, of the KTAU system
// from "Kernel-Level Measurement for Integrated Parallel Performance Views:
// the KTAU Project" (Nataraj, Malony, Shende, Morris — CLUSTER 2006).
//
// KTAU instruments the Linux kernel's scheduling, interrupt, bottom-half,
// system-call and network paths with entry/exit, atomic and context-mapped
// measurement points, keeps per-process profile and trace structures hung
// off the process control block, and exports them through /proc/ktau to
// user-level clients (libKtau, the KTAUD daemon, runKtau, and the TAU
// measurement system), enabling both a kernel-wide and a process-centric
// performance perspective, and merged user/kernel views.
//
// Go cannot patch a Linux kernel, so the substrate here is a deterministic
// discrete-event simulation of a cluster of Linux-like nodes: per-CPU
// runqueues with timeslices and preemption, voluntary/involuntary context
// switches, timer and NIC interrupts with softirq (bottom-half) processing,
// a TCP path over switched Ethernet, an MPI layer, and the NPB LU / ASCI
// Sweep3D workloads the paper measures. The KTAU measurement system itself
// — instrumentation macros, event mapping, control, procfs protocol,
// libKtau, clients — is implemented directly as the paper describes, and
// measurement overhead feeds back into virtual time, so the perturbation
// study (Table 3) is reproducible.
//
// This package is the public facade, and holds what the programs under
// examples/ and the client commands (kmon, kprof, ktaud, runktau) use: the
// simulated cluster (Cluster, Kernel, Task), the measurement system
// (Measurement, Snapshot, instrumentation groups), the clients
// (ProcFS, Handle, KTAUD, RunKtau), the user-level side (Tau profiler,
// merged profiles and timelines), the workloads, analysis helpers,
// perfmon deployment and fault plans. The evaluation drivers — ktau-exp,
// which regenerates every table and figure of the paper, ktau-sweep and
// the benchmarks in bench_test.go — import the internal packages they
// drive.
package ktau
