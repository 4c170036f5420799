package ktau

import (
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/blockio"
	"ktau/internal/cluster"
	"ktau/internal/experiments"
	"ktau/internal/faultsim"
	"ktau/internal/harness"
	"ktau/internal/kernel"
	iktau "ktau/internal/ktau"
	"ktau/internal/ktrace"
	"ktau/internal/libktau"
	"ktau/internal/mpisim"
	"ktau/internal/netsim"
	"ktau/internal/perfmon"
	"ktau/internal/procfs"
	"ktau/internal/ship"
	"ktau/internal/sim"
	"ktau/internal/tau"
	"ktau/internal/tcpsim"
	"ktau/internal/tracepipe"
	"ktau/internal/views"
	"ktau/internal/workload"
)

// ---- simulation engine ----

// Engine is the deterministic discrete-event simulator driving a cluster.
type Engine = sim.Engine

// Time is a point in virtual time (nanoseconds since simulation start).
type Time = sim.Time

// RNG is a deterministic random stream; all simulation randomness derives
// from named sub-streams of one seed.
type RNG = sim.RNG

// NewEngine returns an empty simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRNG returns a deterministic random stream for the seed.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Runner advances several engines together under conservative
// lookahead-window synchronization, in synchronization groups derived from
// a per-pair latency matrix that advance independently between epochs.
type Runner = sim.Runner

// LatencyMatrix holds the per-engine-pair minimum cross-engine latency used
// to partition a Runner into synchronization groups.
type LatencyMatrix = sim.LatencyMatrix

// NewLatencyMatrix returns an n-engine matrix with every pair at def.
func NewLatencyMatrix(n int, def time.Duration) *LatencyMatrix {
	return sim.NewLatencyMatrix(n, def)
}

// NewRunner couples engines under a uniform lookahead: each engine is its
// own synchronisation group, and all of them meet after every window of
// that length. Windows run serially (workers <= 1) or on several
// goroutines.
func NewRunner(engines []*Engine, lookahead time.Duration, workers int) *Runner {
	return sim.NewRunner(engines, lookahead, workers)
}

// NewPartitionedRunner couples engines under a per-pair latency matrix,
// partitioning them into groups that advance independently between
// epoch-based cross-group rendezvous. Delivery order — and therefore every
// simulated byte — is identical at any worker count.
func NewPartitionedRunner(engines []*Engine, m *LatencyMatrix, workers int) *Runner {
	return sim.NewPartitionedRunner(engines, m, workers)
}

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
	GroupBH      = iktau.GroupBH
	GroupSyscall = iktau.GroupSyscall
	GroupTCP     = iktau.GroupTCP
	GroupExc     = iktau.GroupExc
	GroupSignal  = iktau.GroupSignal
	GroupUser    = iktau.GroupUser
	GroupAll     = iktau.GroupAll
	GroupNone    = iktau.GroupNone
)

// ParseGroup parses a group list such as "SCHED,TCP" or "ALL".
func ParseGroup(s string) (Group, error) { return iktau.ParseGroup(s) }

// OverheadModel models the direct cost of measurement operations (Table 4).
type OverheadModel = iktau.OverheadModel

// DefaultOverheadModel returns the Table-4-calibrated model.
func DefaultOverheadModel(rng *RNG) *OverheadModel { return iktau.DefaultOverheadModel(rng) }

// TraceRecord is one kernel trace record; TraceRing the per-process
// circular buffer.
type TraceRecord = iktau.Record

// TraceRing is the fixed-size circular per-process trace buffer.
type TraceRing = iktau.Ring

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

// WaitQueue is a kernel wait queue.
type WaitQueue = kernel.WaitQueue

// SpawnOpts configures process creation.
type SpawnOpts = kernel.SpawnOpts

// Task kinds.
const (
	KindUser    = kernel.KindUser
	KindDaemon  = kernel.KindDaemon
	KindKThread = kernel.KindKThread
)

// AffinityCPU returns a mask pinning a task to one CPU.
func AffinityCPU(cpu int) uint64 { return kernel.AffinityCPU(cpu) }

// ---- interconnect and TCP ----

// LinkSpec describes the cluster interconnect.
type LinkSpec = netsim.LinkSpec

// DefaultLinkSpec models 100 Mb/s switched Ethernet.
func DefaultLinkSpec() LinkSpec { return netsim.DefaultLinkSpec() }

// TCPParams is the TCP path cost model.
type TCPParams = tcpsim.Params

// DefaultTCPParams returns the calibrated TCP cost model.
func DefaultTCPParams() TCPParams { return tcpsim.DefaultParams() }

// Stack is one node's TCP stack; Conn a connection endpoint.
type Stack = tcpsim.Stack

// Conn is one endpoint of an established simulated TCP connection.
type Conn = tcpsim.Conn

// Connect establishes a connection between two node stacks.
func Connect(a, b *Stack) (*Conn, *Conn) { return tcpsim.Connect(a, b) }

// ---- cluster assembly ----

// Cluster is a booted multi-node system.
type Cluster = cluster.Cluster

// ClusterConfig describes a cluster to boot.
type ClusterConfig = cluster.Config

// ClusterTopology groups a cluster's nodes into racks with a higher
// cross-rack wire latency; a non-flat topology partitions the runner into
// per-rack synchronization groups.
type ClusterTopology = cluster.Topology

// DefaultInterRackFactor scales the link latency into the default
// cross-rack latency when a ClusterTopology leaves it unset.
const DefaultInterRackFactor = cluster.DefaultInterRackFactor

// NodeSpec describes one node.
type NodeSpec = cluster.NodeSpec

// Node is one booted machine (kernel + NIC + TCP stack).
type Node = cluster.Node

// NewCluster boots a cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// UniformNodes returns n identical node specs named prefix0..prefixN-1.
func UniformNodes(prefix string, n int) []NodeSpec { return cluster.UniformNodes(prefix, n) }

// ---- MPI layer ----

// World is an MPI job; Rank one MPI process.
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

// Scope selects self / other / all / kernel-wide retrieval.
type Scope = libktau.Scope

// Retrieval scopes.
const (
	ScopeSelf       = libktau.ScopeSelf
	ScopeOther      = libktau.ScopeOther
	ScopeAll        = libktau.ScopeAll
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

// OverheadDaemon is the §5.1 anomaly process (sleep 10 s, busy 3 s).
func OverheadDaemon() DaemonSpec { return workload.OverheadDaemon() }

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

// ---- experiment harness (the paper's evaluation) ----

// ChibaSpec describes one Chiba-City style run (§5.2).
type ChibaSpec = experiments.ChibaSpec

// ChibaResult is the harvested outcome of one run.
type ChibaResult = experiments.ChibaResult

// RunChiba executes one Chiba configuration.
func RunChiba(spec ChibaSpec) *ChibaResult { return experiments.RunChiba(spec) }

// DefaultChiba returns the baseline Chiba spec.
func DefaultChiba(ranks, perNode int) ChibaSpec { return experiments.DefaultChiba(ranks, perNode) }

// SetParallel makes every subsequently built DefaultChiba spec execute its
// node engines on multiple host CPUs. Host execution mode only: same-seed
// results are byte-identical to serial runs.
func SetParallel(on bool, workers int) { experiments.SetParallel(on, workers) }

// RunIONodeStudy executes the §6 I/O-node characterization extension.
func RunIONodeStudy(seed uint64) *experiments.IONodeStudy {
	return experiments.RunIONodeStudy(seed)
}

// OpDurations reconstructs per-activation durations from a kernel trace.
func OpDurations(recs []TraceRecord, nameOf func(EventID) string) map[string][]int64 {
	return ktrace.OpDurations(recs, nameOf)
}

// Experiment runners: each returns a result with a Render(io.Writer) method
// reproducing the corresponding table or figure of the paper.
var (
	RunTable2 = experiments.RunTable2
	RunTable3 = experiments.RunTable3
	RunTable4 = experiments.RunTable4
	RunFig2AB = experiments.RunFig2AB
	RunFig2C  = experiments.RunFig2C
	RunFig2E  = experiments.RunFig2E
	RunFig3   = experiments.RunFig3
	RunFig4   = experiments.RunFig4
	RunFig5   = experiments.RunFig5
	RunFig6   = experiments.RunFig6
	RunFig7   = experiments.RunFig7
	RunFig8   = experiments.RunFig8
	RunFig9   = experiments.RunFig9
	RunFig10  = experiments.RunFig10
)

// NewWaitQueueNamed returns a named kernel wait queue.
func NewWaitQueueNamed(name string) *WaitQueue { return kernel.NewWaitQueue(name) }

// ---- future-work extensions (paper §6) ----

// PhaseProfile is one phase's sub-profile (phase-based profiling).
type PhaseProfile = tau.PhaseProfile

// RenderMergedTree writes the merged user/kernel call tree: user routines
// with the kernel events mapped inside them as children.
func RenderMergedTree(w io.Writer, merged MergedProfile, kern Snapshot, hz int64) {
	tau.RenderMergedTree(w, merged, kern, hz)
}

// Virtual performance-counter indices (PAPI-style), readable per task and
// accumulated per kernel event when a counter source is attached (the
// kernel attaches one automatically).
const (
	CtrInstructions = kernel.CtrInstructions
	CtrL2Misses     = kernel.CtrL2Misses
)

// MaxCounters bounds the per-event counter vector length.
const MaxCounters = iktau.MaxCounters

// ---- block I/O (the §6 I/O-node characterization target) ----

// Disk is a node's block device with request queue and page cache files.
type Disk = blockio.Disk

// DiskSpec models a disk device.
type DiskSpec = blockio.DiskSpec

// DiskFile is an open file with write-back page caching.
type DiskFile = blockio.File

// PageSize is the page-cache granularity.
const PageSize = blockio.PageSize

// DefaultDiskSpec models a 2000s-era IDE disk.
func DefaultDiskSpec() DiskSpec { return blockio.DefaultDiskSpec() }

// NewDisk attaches a disk to a node's kernel.
func NewDisk(k *Kernel, name string, spec DiskSpec) *Disk { return blockio.NewDisk(k, name, spec) }

// DefaultCGConfig returns the scaled NPB CG configuration.
func DefaultCGConfig(ranks int) CGConfig { return workload.DefaultCGConfig(ranks) }

// CGConfig parameterises the NPB CG analogue (collective-heavy).
type CGConfig = workload.CGConfig

// CG returns the rank body implementing the CG workload.
func CG(cfg CGConfig) func(*Rank) { return workload.CG(cfg) }

// EPConfig parameterises the NPB EP analogue (embarrassingly parallel).
type EPConfig = workload.EPConfig

// DefaultEPConfig returns the scaled NPB EP configuration.
func DefaultEPConfig(ranks int) EPConfig { return workload.DefaultEPConfig(ranks) }

// EP returns the rank body implementing the EP workload.
func EP(cfg EPConfig) func(*Rank) { return workload.EP(cfg) }

// WriteChromeTrace exports a merged timeline as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto): the modern stand-in for
// handing KTAU traces to Vampir.
func WriteChromeTrace(w io.Writer, tl []TimelineEvent, hz int64, pid int) error {
	return ktrace.WriteChromeTrace(w, tl, hz, pid)
}

// ---- online cluster monitoring (perfmon, §4.5 at cluster scale) ----

// PerfMon is a deployed cluster-wide monitoring pipeline: per-node kmond
// agents shipping delta-encoded kernel profiles over the simulated network
// to an elected collector.
type PerfMon = perfmon.PerfMon

// PerfMonConfig parameterises a monitoring deployment (interval, rounds,
// store bounds, detector tuning, rank classification).
type PerfMonConfig = perfmon.Config

// PerfMonStore is the collector's bounded time-series database.
type PerfMonStore = perfmon.Store

// PerfMonStoreConfig bounds the store (ring retention, downsampling).
type PerfMonStoreConfig = perfmon.StoreConfig

// PerfMonSample is one stored time-series point of a (node, event) series.
type PerfMonSample = perfmon.Sample

// PerfMonNodeInfo summarises one monitored node's collection state.
type PerfMonNodeInfo = perfmon.NodeInfo

// EventTotal is a series' cumulative state since monitoring began.
type EventTotal = perfmon.EventTotal

// HotEvent is one kernel routine's cluster-wide activity over a window.
type HotEvent = perfmon.HotEvent

// DetectConfig tunes the online OS-noise detector.
type DetectConfig = perfmon.DetectConfig

// NoiseReport is the cluster-wide OS-noise view (the live Figs. 8-10).
type NoiseReport = perfmon.NoiseReport

// NodeNoise is one node's OS-noise assessment.
type NodeNoise = perfmon.NodeNoise

// RankLoad is one application rank's estimated CPU load over a window.
type RankLoad = perfmon.RankLoad

// MonitorFrame is one delta-encoded collection frame.
type MonitorFrame = perfmon.Frame

// TimerTickEvent is the kernel timer-tick event name the detectors use for
// tick-sampled occupancy estimation.
const TimerTickEvent = perfmon.TimerTickEvent

// DeployPerfMon elects a collector, wires every node to it over the
// simulated network, and spawns the monitoring tasks. Drive the engine
// afterwards (e.g. RunUntilDone over pm.Tasks()). It errors on a cluster
// with no live node to collect on.
func DeployPerfMon(c *Cluster, cfg PerfMonConfig) (*PerfMon, error) { return perfmon.Deploy(c, cfg) }

// ElectCollector returns the node index the collection pipelines (perfmon
// and tracepipe) would elect as collector, or -1 when no node is live.
func ElectCollector(c *Cluster) int { return ship.Elect(c) }

// NewPerfMonStore creates an empty time-series store (for offline ingest).
func NewPerfMonStore(cfg PerfMonStoreConfig) *PerfMonStore { return perfmon.NewStore(cfg) }

// EncodeMonitorFrame serialises a collection frame to its wire payload.
func EncodeMonitorFrame(f MonitorFrame) []byte { return perfmon.EncodeFrame(f) }

// DecodeMonitorFrame parses a wire payload back into a frame.
func DecodeMonitorFrame(b []byte) (MonitorFrame, error) { return perfmon.DecodeFrame(b) }

// LiveOptions configures a monitored (online) Chiba run.
type LiveOptions = experiments.LiveOptions

// LiveResult pairs a run's offline harvest with the online pipeline's view.
type LiveResult = experiments.LiveResult

// RunChibaLive executes one Chiba configuration with the perfmon pipeline
// deployed alongside the job, returning both the live store and the usual
// offline harvest for cross-checking.
func RunChibaLive(spec ChibaSpec, opts LiveOptions) *LiveResult {
	return experiments.RunChibaLive(spec, opts)
}

// ---- fault injection (faultsim) ----

// FaultKind classifies an injected fault.
type FaultKind = faultsim.Kind

// The fault kinds a plan can schedule.
const (
	FaultPacketLoss    = faultsim.PacketLoss
	FaultPacketDup     = faultsim.PacketDup
	FaultPacketCorrupt = faultsim.PacketCorrupt
	FaultExtraLatency  = faultsim.ExtraLatency
	FaultPartition     = faultsim.Partition
	FaultNodeCrash     = faultsim.NodeCrash
	FaultCPUSlow       = faultsim.CPUSlow
	FaultDaemonStall   = faultsim.DaemonStall
	FaultProcfsError   = faultsim.ProcfsError
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

// FaultStudy is the "Chiba with faults" experiment: clean vs degraded vs
// collector-crash monitored runs.
type FaultStudy = experiments.FaultStudy

// RunFaultStudy executes the fault study at one rank per node.
func RunFaultStudy(ranks int, seed uint64) *FaultStudy {
	return experiments.RunFaultStudy(ranks, seed)
}

// ---- multi-tenant serving workload (servesim) ----

// ServeResult is the harvested serving run: per-tenant latency quantiles,
// the merged latency store, the collector's kernel time-series, and the
// tail-latency attribution for each tenant's worst server node.
type ServeResult = experiments.ServeResult

// RunServeDefault runs the baseline scenario at the given cluster size.
func RunServeDefault(nodes int, seed uint64) *ServeResult {
	spec := experiments.DefaultServe(nodes)
	spec.Seed = seed
	return experiments.RunServe(spec)
}

// ---- cluster-wide streaming trace pipeline (tracepipe) ----

// TracePipe is a deployed cluster-wide trace pipeline: per-node ktraced
// agents drain every task's kernel trace ring (plus the configured
// user-level rings and MPI message logs) and ship frames over the simulated
// network to the elected collector.
type TracePipe = tracepipe.Pipeline

// TracePipeConfig parameterises a trace deployment (interval, rounds,
// timeouts, user/message sources).
type TracePipeConfig = tracepipe.Config

// TraceCollector accumulates frames at the collector: deterministic
// cross-node merge, MPI flow correlation, self-metric exports.
type TraceCollector = tracepipe.Collector

// TraceFrame is one collection round's trace shipment from a node.
type TraceFrame = tracepipe.Frame

// TraceStream is one ring buffer's drained contribution to a frame.
type TraceStream = tracepipe.Stream

// TraceRec is one resolved (named) trace record inside a frame.
type TraceRec = tracepipe.Rec

// TraceMsg is one MPI message endpoint event used for flow correlation.
type TraceMsg = tracepipe.Msg

// TraceUserSource exposes one process's user-level trace ring to an agent.
type TraceUserSource = tracepipe.UserSource

// TraceMsgSource exposes one process's MPI message log to an agent.
type TraceMsgSource = tracepipe.MsgSource

// TraceNodeStats is one node's pipeline self-metrics (loss, drops, backlog).
type TraceNodeStats = tracepipe.NodeStats

// TraceFlow is one correlated MPI send→recv pair in the merged trace.
type TraceFlow = tracepipe.Flow

// DeployTracePipe elects a collector and starts the per-node trace agents;
// call before driving the workload, Stop and drain afterwards.
func DeployTracePipe(c *Cluster, cfg TracePipeConfig) (*TracePipe, error) {
	return tracepipe.Deploy(c, cfg)
}

// NewTraceCollector creates an empty collector store (for offline ingest,
// e.g. single-node KTAUD trace mode).
func NewTraceCollector(nodes int, hz int64) *TraceCollector {
	return tracepipe.NewCollector(nodes, hz)
}

// EncodeTraceFrame serialises a trace frame to its wire payload.
func EncodeTraceFrame(f TraceFrame) []byte { return tracepipe.EncodeFrame(f) }

// DecodeTraceFrame parses a wire payload back into a trace frame.
func DecodeTraceFrame(b []byte) (TraceFrame, error) { return tracepipe.DecodeFrame(b) }

// TraceDump is one process's drained kernel trace ring as read through
// /proc/ktau/trace (libKtau).
type TraceDump = libktau.TraceDump

// ---- adaptive (always-on) tracing ----

// TracePolicy is one node's trace-collection policy: which event groups the
// agent keeps, and at what probability.
type TracePolicy = tracepipe.Policy

// TraceAdaptive enables deterministic sampling and backlog throttling on
// every trace agent.
type TraceAdaptive = tracepipe.Adaptive

// TraceFocusConfig runs the collector-driven focus loop: nodes the OS-noise
// detector flags get full-fidelity tracing, everyone else stays sampled.
type TraceFocusConfig = tracepipe.FocusConfig

// TraceFullPolicy traces every group at full rate — what the focus loop
// pushes to flagged nodes by default.
func TraceFullPolicy() TracePolicy { return tracepipe.FullPolicy() }

// AdaptiveTraceConfig returns the always-on trace-pipeline configuration:
// sampling at the given base rate, default backlog throttling, and the
// collector-driven focus loop.
func AdaptiveTraceConfig(rate float64) *TracePipeConfig {
	return experiments.AdaptiveTraceConfig(rate)
}

// ---- sweep harness (cmd/ktau-sweep) ----

// SweepParams identifies one sweep cell: spec name plus every grid axis.
type SweepParams = harness.Params

// SweepCell is one cell's structured outcome (status, metrics, fingerprints).
type SweepCell = harness.CellResult

// SweepGrid is a parameter grid that expands into cells.
type SweepGrid = harness.Grid

// SweepOptions configures a sweep run (per-cell timeout, concurrency,
// output directory).
type SweepOptions = harness.SweepConfig

// SweepResult is a completed sweep: one cell result per grid cell.
type SweepResult = harness.SweepResult

// SweepBaseline is a committed sweep snapshot used as a regression gate.
type SweepBaseline = harness.Baseline

// Sweep cell statuses.
const (
	SweepOK      = harness.StatusOK
	SweepTimeout = harness.StatusTimeout
	SweepPanic   = harness.StatusPanic
	SweepError   = harness.StatusError
)

// Sweep-harness entry points. RunSweepCell executes one cell (panic-safe);
// RunSweep expands a grid onto a bounded pool with a mandatory per-cell
// timeout; the baseline functions implement the committed-snapshot gate; the
// bench functions are the strict BENCH_*.json gate that replaced check.sh's
// sed scraping.
var (
	RunSweepCell      = harness.RunCell
	RunSweep          = harness.RunSweep
	NamedSweepGrids   = harness.NamedGrids
	SweepSpecs        = harness.Specs
	NewSweepBaseline  = harness.NewBaseline
	SaveSweepBaseline = harness.SaveBaseline
	LoadSweepBaseline = harness.LoadBaseline
	DiffSweepBaseline = harness.DiffBaseline
	GateBenchFiles    = harness.GateBenchFiles
	CheckBenchPayload = harness.CheckBenchPayload
	FlattenBenchJSON  = harness.FlattenJSON
)

// ---- integrated performance views (internal/views) ----

// Report is a built cross-layer performance view: a deterministic tree of
// sections, facts, tables and bar panels that renders to self-contained
// HTML or markdown with identical structure in both formats.
type Report = views.Report

// View builders and renderers. BuildCellReport turns one sweep cell into the
// full cross-layer view (per-rank breakdowns, noise overlays, tail
// attribution — depending on what the cell captured); BuildSweepReport covers
// a whole sweep with baseline deltas inline; BuildTextReport wraps plain
// captured output; WriteReportFile picks HTML or markdown by file extension.
var (
	BuildCellReport  = views.BuildCell
	BuildSweepReport = views.BuildSweep
	BuildTextReport  = views.BuildText
	WriteReportFile  = views.WriteFile
)
