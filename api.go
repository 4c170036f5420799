package ktau

import (
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/blockio"
	"ktau/internal/cluster"
	"ktau/internal/faultsim"
	"ktau/internal/kernel"
	iktau "ktau/internal/ktau"
	"ktau/internal/ktrace"
	"ktau/internal/libktau"
	"ktau/internal/mpisim"
	"ktau/internal/perfmon"
	"ktau/internal/procfs"
	"ktau/internal/sim"
	"ktau/internal/tau"
	"ktau/internal/tcpsim"
	"ktau/internal/tracepipe"
	"ktau/internal/workload"
)

// Time is a point in virtual time (nanoseconds since simulation start).
type Time = sim.Time

// ---- the KTAU measurement system (the paper's contribution) ----

// Measurement is one node's KTAU measurement system: registry, control
// state, per-process profile/trace life-cycle and instrumentation fast
// paths.
type Measurement = iktau.Measurement

// MeasurementOptions configures a measurement system (compiled/boot/runtime
// group masks, overhead model, trace capacity, event mapping).
type MeasurementOptions = iktau.Options

// Snapshot is a self-contained copy of one process's (or the kernel-wide)
// profile.
type Snapshot = iktau.Snapshot

// EventID identifies an instrumentation point.
type EventID = iktau.EventID

// Group is an instrumentation group bitmask (SCHED, IRQ, BH, SYSCALL, TCP,
// EXCEPTION, SIGNAL, USER).
type Group = iktau.Group

// Instrumentation groups (see paper §4.1).
const (
	GroupSched   = iktau.GroupSched
	GroupIRQ     = iktau.GroupIRQ
	GroupSyscall = iktau.GroupSyscall
	GroupTCP     = iktau.GroupTCP
	GroupAll     = iktau.GroupAll
	GroupNone    = iktau.GroupNone
)

// ParseGroup parses a group list such as "SCHED,TCP" or "ALL".
func ParseGroup(s string) (Group, error) { return iktau.ParseGroup(s) }

// TraceRecord is one kernel trace record.
type TraceRecord = iktau.Record

// ---- simulated kernel ----

// Kernel is one simulated node's operating system.
type Kernel = kernel.Kernel

// KernelParams are a node's tunables (clock, CPUs, tick, timeslice, IRQ
// routing policy, cost model).
type KernelParams = kernel.Params

// DefaultKernelParams models a dual 450 MHz Chiba-City node.
func DefaultKernelParams() KernelParams { return kernel.DefaultParams() }

// Task is a simulated process (the task_struct analogue, carrying its KTAU
// measurement structure).
type Task = kernel.Task

// Program is the body of a simulated process.
type Program = kernel.Program

// UCtx is the user-space execution context of a running Program.
type UCtx = kernel.UCtx

// KCtx is the kernel-mode context available inside a system call.
type KCtx = kernel.KCtx

// SpawnOpts configures process creation.
type SpawnOpts = kernel.SpawnOpts

// Task kinds.
const (
	KindUser   = kernel.KindUser
	KindDaemon = kernel.KindDaemon
)

// AffinityCPU returns a mask pinning a task to one CPU.
func AffinityCPU(cpu int) uint64 { return kernel.AffinityCPU(cpu) }

// CtrInstructions indexes the virtual instructions-retired counter
// (PAPI-style), readable per task and accumulated per kernel event.
const CtrInstructions = kernel.CtrInstructions

// ---- TCP and cluster assembly ----

// Stack is one node's TCP stack.
type Stack = tcpsim.Stack

// Conn is one endpoint of an established simulated TCP connection.
type Conn = tcpsim.Conn

// Connect establishes a connection between two node stacks.
func Connect(a, b *Stack) (*Conn, *Conn) { return tcpsim.Connect(a, b) }

// Cluster is a booted multi-node system.
type Cluster = cluster.Cluster

// ClusterConfig describes a cluster to boot.
type ClusterConfig = cluster.Config

// NodeSpec describes one node.
type NodeSpec = cluster.NodeSpec

// NewCluster boots a cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// UniformNodes returns n identical node specs named prefix0..prefixN-1.
func UniformNodes(prefix string, n int) []NodeSpec { return cluster.UniformNodes(prefix, n) }

// ---- MPI layer ----

// World is an MPI job.
type World = mpisim.World

// Rank is one MPI process of a World.
type Rank = mpisim.Rank

// RankSpec places one rank on a node stack with optional CPU affinity.
type RankSpec = mpisim.RankSpec

// NewWorld creates an MPI world from rank placements.
func NewWorld(specs []RankSpec, topts TauOptions) *World { return mpisim.NewWorld(specs, topts) }

// ---- TAU user-level measurement ----

// Tau is the user-level profiler bound to one process.
type Tau = tau.Profiler

// TauOptions configures a profiler.
type TauOptions = tau.Options

// TauProfile is a user-level profile snapshot.
type TauProfile = tau.Profile

// MergedProfile is the integrated user/kernel view (Fig 2-D).
type MergedProfile = tau.MergedProfile

// NewTau creates a profiler bound to the calling task (call from its
// Program).
func NewTau(u *UCtx, opts TauOptions) *Tau { return tau.New(u, opts) }

// DefaultTauOptions enables user-level profiling with era-plausible cost.
func DefaultTauOptions() TauOptions { return tau.DefaultOptions() }

// Merge combines a user profile with the process's kernel snapshot.
func Merge(user TauProfile, kern Snapshot) MergedProfile { return tau.Merge(user, kern) }

// ---- /proc/ktau, libKtau and clients ----

// ProcFS is a node's /proc/ktau interface.
type ProcFS = procfs.FS

// NewProcFS exposes a measurement system through the proc interface.
func NewProcFS(m *Measurement) *ProcFS { return procfs.New(m) }

// Handle is a libKtau connection to one node's /proc/ktau.
type Handle = libktau.Handle

// Retrieval scopes: another process's profile, or the kernel-wide one.
const (
	ScopeOther      = libktau.ScopeOther
	ScopeKernelWide = libktau.ScopeKernelWide
)

// OpenKtau opens a libKtau handle over a node's proc filesystem.
func OpenKtau(fs *ProcFS) *Handle { return libktau.Open(fs) }

// KTAUDConfig configures the KTAUD collection daemon.
type KTAUDConfig = libktau.DaemonConfig

// KTAUD returns a Program implementing the KTAUD daemon (§4.5).
func KTAUD(fs *ProcFS, cfg KTAUDConfig) Program { return libktau.Daemon(fs, cfg) }

// SummarizeRound writes the one-line-per-process round summary used by
// cmd/ktaud's quiet mode.
func SummarizeRound(w io.Writer, round int, now time.Duration, snaps []Snapshot) {
	libktau.SummarizeRound(w, round, now, snaps)
}

// RunKtau wraps a program like the runKtau client: run it, then fetch its
// own kernel profile into result.
func RunKtau(fs *ProcFS, body Program, result *Snapshot) Program {
	return libktau.RunKtau(fs, body, result)
}

// WriteProfileASCII renders a snapshot in libKtau's text format.
func WriteProfileASCII(w io.Writer, s Snapshot) error { return libktau.WriteASCII(w, s) }

// FormatProfile renders a human-readable profile listing.
func FormatProfile(w io.Writer, s Snapshot, hz int64) { libktau.FormatProfile(w, s, hz) }

// TraceDump is one process's drained kernel trace ring as read through
// /proc/ktau/trace (libKtau).
type TraceDump = libktau.TraceDump

// ---- merged tracing ----

// TimelineEvent is one record of a merged user/kernel timeline.
type TimelineEvent = ktrace.Event

// MergeTimeline combines user and kernel traces on the shared timebase.
func MergeTimeline(user []tau.Record, kern []TraceRecord, nameOf func(EventID) string) []TimelineEvent {
	return ktrace.Merge(user, kern, nameOf)
}

// TimelineWindow cuts the sub-timeline of one occurrence of a user routine.
func TimelineWindow(tl []TimelineEvent, routine string, occ int) []TimelineEvent {
	return ktrace.Window(tl, routine, occ)
}

// RenderTimeline prints a Vampir-like indented text timeline.
func RenderTimeline(w io.Writer, tl []TimelineEvent, hz int64) { ktrace.Render(w, tl, hz) }

// ---- workloads ----

// LUConfig parameterises the NPB LU analogue.
type LUConfig = workload.LUConfig

// SweepConfig parameterises the ASCI Sweep3D analogue.
type SweepConfig = workload.SweepConfig

// DaemonSpec describes a periodic background process.
type DaemonSpec = workload.DaemonSpec

// Grid is a 2-D logical process grid.
type Grid = workload.Grid

// DefaultLUConfig returns the scaled class-C-like LU configuration.
func DefaultLUConfig(ranks int) LUConfig { return workload.DefaultLUConfig(ranks) }

// LU returns the rank body implementing the LU workload.
func LU(cfg LUConfig) func(*Rank) { return workload.LU(cfg) }

// DefaultSweepConfig returns the scaled Sweep3D configuration.
func DefaultSweepConfig(ranks int) SweepConfig { return workload.DefaultSweepConfig(ranks) }

// Sweep3D returns the rank body implementing the Sweep3D workload.
func Sweep3D(cfg SweepConfig) func(*Rank) { return workload.Sweep3D(cfg) }

// StartDaemon spawns a periodic background process on a node.
func StartDaemon(k *Kernel, spec DaemonSpec) *Task { return workload.StartDaemon(k, spec) }

// StartSystemDaemons spawns the standard daemon population on a node.
func StartSystemDaemons(k *Kernel) []*Task { return workload.StartSystemDaemons(k) }

// MakeGrid factors n ranks into the most-square 2-D grid.
func MakeGrid(n int) Grid { return workload.MakeGrid(n) }

// LMBenchNullSyscall measures the null-syscall round trip on a node.
func LMBenchNullSyscall(k *Kernel, iters int) time.Duration {
	return workload.LMBenchNullSyscall(k, iters)
}

// LMBenchCtxSwitch measures the one-way context-switch latency on a node.
func LMBenchCtxSwitch(k *Kernel, rounds int) time.Duration {
	return workload.LMBenchCtxSwitch(k, rounds)
}

// LMBenchTCP measures small-message latency and bulk bandwidth between two
// node stacks; the cluster drives both nodes' engines for the duration.
func LMBenchTCP(c *Cluster, a, b *Stack, rounds, bulkBytes int) (time.Duration, float64) {
	return workload.LMBenchTCP(c, a, b, rounds, bulkBytes)
}

// ---- block I/O (the §6 I/O-node characterization target) ----

// Disk is a node's block device with request queue and page cache files.
type Disk = blockio.Disk

// DiskSpec models a disk device.
type DiskSpec = blockio.DiskSpec

// DefaultDiskSpec models a 2000s-era IDE disk.
func DefaultDiskSpec() DiskSpec { return blockio.DefaultDiskSpec() }

// NewDisk attaches a disk to a node's kernel.
func NewDisk(k *Kernel, name string, spec DiskSpec) *Disk { return blockio.NewDisk(k, name, spec) }

// ---- analysis ----

// Point is one (x, y) sample of a series.
type Point = analysis.Point

// Histogram is an equal-width binning of samples.
type Histogram = analysis.Histogram

// CDF returns the empirical cumulative distribution of the samples.
func CDF(samples []float64) []Point { return analysis.CDF(samples) }

// Quantile returns the q-quantile of the samples.
func Quantile(samples []float64, q float64) float64 { return analysis.Quantile(samples, q) }

// NewHistogram bins samples into equal-width bins.
func NewHistogram(samples []float64, bins int) Histogram { return analysis.NewHistogram(samples, bins) }

// BarChart renders a horizontal text bar chart.
func BarChart(w io.Writer, title string, labels []string, values []float64, unit string, width int) {
	analysis.BarChart(w, title, labels, values, unit, width)
}

// TextTable renders an aligned text table.
func TextTable(w io.Writer, headers []string, rows [][]string) { analysis.Table(w, headers, rows) }

// ---- online cluster monitoring (perfmon, §4.5 at cluster scale) ----

// PerfMon is a deployed cluster-wide monitoring pipeline: per-node kmond
// agents shipping delta-encoded kernel profiles over the simulated network
// to an elected collector.
type PerfMon = perfmon.PerfMon

// PerfMonConfig parameterises a monitoring deployment (interval, rounds,
// store bounds, detector tuning, rank classification).
type PerfMonConfig = perfmon.Config

// DetectConfig tunes the online OS-noise detector.
type DetectConfig = perfmon.DetectConfig

// DeployPerfMon elects a collector, wires every node to it over the
// simulated network, and spawns the monitoring tasks. Drive the engine
// afterwards (e.g. RunUntilDone over pm.Tasks()). It errors on a cluster
// with no live node to collect on.
func DeployPerfMon(c *Cluster, cfg PerfMonConfig) (*PerfMon, error) { return perfmon.Deploy(c, cfg) }

// ---- trace collection (tracepipe's collector, fed offline by ktaud) ----

// TraceCollector accumulates trace frames: deterministic cross-node merge,
// MPI flow correlation, self-metric exports.
type TraceCollector = tracepipe.Collector

// NewTraceCollector creates an empty collector store (for offline ingest,
// e.g. single-node KTAUD trace mode).
func NewTraceCollector(nodes int, hz int64) *TraceCollector {
	return tracepipe.NewCollector(nodes, hz)
}

// TraceFrame is one collection round's trace shipment from a node.
type TraceFrame = tracepipe.Frame

// TraceStream is one ring buffer's drained contribution to a frame.
type TraceStream = tracepipe.Stream

// TraceRec is one resolved (named) trace record inside a frame.
type TraceRec = tracepipe.Rec

// ---- fault injection (faultsim) ----

// The fault kinds the examples schedule; internal/faultsim defines the
// rest (duplication, corruption, latency, partitions, CPU slowdowns,
// daemon stalls, /proc/ktau read errors).
const (
	FaultPacketLoss = faultsim.PacketLoss
	FaultNodeCrash  = faultsim.NodeCrash
)

// Fault is one entry in a fault plan.
type Fault = faultsim.Fault

// FaultPlan is a complete, seeded fault schedule. Its randomness is
// independent of the cluster's: same seed and plan, byte-identical run.
type FaultPlan = faultsim.Plan

// FaultInjector is an applied plan with its deterministic effect counters.
type FaultInjector = faultsim.Injector

// ApplyFaults validates the plan and arms every fault on the cluster's
// engine; call it before driving the engine.
func ApplyFaults(c *Cluster, p FaultPlan) (*FaultInjector, error) {
	return faultsim.Apply(c, p)
}
