// Package perfmon is the cluster-wide online monitoring pipeline: the layer
// the paper's title promises ("integrated parallel performance views") built
// on top of KTAU's per-node machinery. Each node runs a KTAUD-style agent
// (§4.5) that reads /proc/ktau on an interval, delta-encodes the kernel-wide
// profile against the previous round, and ships the frame over the simulated
// TCP network to an elected collector node. Collection traffic therefore
// flows through the same instrumented TCP path as application traffic, so
// the pipeline observes its own interference — the self-observation property
// KTAU claims.
//
// The collector maintains a bounded ring-buffer time-series store (per node
// × kernel event × {calls, incl, excl}) with configurable retention and
// downsampling, answers cluster-wide queries (top-K hottest kernel routines,
// per-node merges, time-window slices), runs online detectors (OS-noise /
// daemon interference as in Figs. 8-10, slow-node ranking), and exports
// Prometheus text, JSON lines and a human ASCII cluster view.
//
// The pipeline is fault-tolerant, through the agent→collector transport it
// shares with tracepipe (package ship): agents retry transient procfs
// errors with bounded backoff and ship explicit gap frames when a round's
// data stays unreadable; sinks receive with timeouts, count-and-drop damaged
// frames, and mark a node down instead of blocking forever when it stops
// reporting; and when the collector node itself dies, agents detect the
// broken link, re-elect a live collector and reconnect — the store (held by
// the PerfMon, not the dead node) keeps every pre-crash sample.
package perfmon

import (
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/libktau"
	"ktau/internal/ship"
)

// Config parameterises a deployment. Retry, timeout and cost settings are
// the shared transport's (package ship), scaled by Interval.
type Config struct {
	// Interval between collection rounds on every agent (default 100ms).
	Interval time.Duration
	// Rounds bounds each agent's collection loop (0 = run until Stop or
	// kernel shutdown). The final round is flagged so sinks drain cleanly.
	Rounds int
	// Store bounds the collector's time-series memory.
	Store StoreConfig
	// Detect configures the online detectors.
	Detect DetectConfig
	// RankPrefix identifies application processes by task-name prefix (e.g.
	// "LU.rank"); everything else except idle tasks counts as system/daemon
	// activity for the noise detector. Empty disables rank classification.
	RankPrefix string
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	c.Store.defaults()
	c.Detect.defaults()
}

// PerfMon is a deployed monitoring pipeline. The embedded transport
// provides Tasks, Collector, Failovers and Stop.
type PerfMon struct {
	*ship.Transport[Frame]
	cfg   Config
	store *Store
}

// Deploy elects a collector (ship.Elect), connects every other node to it
// over the simulated network, and spawns the per-node agent daemons
// ("kmond") plus one sink task ("kmon-sink") per connection on the
// collector. Call before launching the workload; drive the engine afterwards
// (e.g. cluster.RunUntilDone on Tasks()). It fails when the cluster has no
// live node to collect on.
func Deploy(c *cluster.Cluster, cfg Config) (*PerfMon, error) {
	cfg.defaults()
	pm := &PerfMon{cfg: cfg, store: NewStore(cfg.Store)}
	name := func(i int) string { return c.Node(i).Name }
	tr, err := ship.Deploy(c, ship.Config{
		Name: "perfmon", Agent: "kmond", Sink: "kmon-sink",
		Interval: cfg.Interval, Rounds: cfg.Rounds,
	}, func() (ship.Hooks[Frame], error) {
		return ship.Hooks[Frame]{
			Decode:   DecodeFrame,
			Last:     func(f Frame) bool { return f.Last },
			Ingest:   pm.store.Ingest,
			Drop:     func(i int) { pm.store.Drop(name(i)) },
			MarkDown: func(i int) { pm.store.MarkDown(name(i)) },
			NewAgent: pm.newAgent,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	pm.Transport = tr
	return pm, nil
}

// Store returns the collector's time-series store.
func (pm *PerfMon) Store() *Store { return pm.store }

// Config returns the deployment configuration (defaults applied).
func (pm *PerfMon) Config() Config { return pm.cfg }

// groupExcl sums exclusive cycles of one group in a snapshot delta.
func groupExcl(evs []ktau.EventDelta, g ktau.Group) int64 {
	var t int64
	for _, e := range evs {
		if e.Group == g {
			t += e.DExcl
		}
	}
	return t
}

// agentState is the delta-encoding baseline one agent carries between
// rounds. It is split out of the agent loop so the round logic is testable
// without a cluster.
type agentState struct {
	prevKW   ktau.Snapshot
	prevProc map[int]ktau.Snapshot
	// pd is scratch for the per-process deltas, which are reduced to a
	// ProcDelta and dropped: one SnapshotDelta is refilled for each.
	pd ktau.SnapshotDelta
}

func newAgentState() *agentState {
	return &agentState{prevProc: make(map[int]ktau.Snapshot)}
}

// buildFrame delta-encodes one successfully read round against the baseline
// and advances it. PIDs absent from the current read are evicted from the
// baseline: once a process is gone from procfs it can never produce another
// delta, and keeping its snapshot would grow the map without bound under
// process churn.
func (a *agentState) buildFrame(node string, idx, round, cpus int, last bool,
	kw ktau.Snapshot, procs []ktau.Snapshot) Frame {
	f := Frame{
		Node:    node,
		NodeIdx: idx,
		Round:   round,
		CPUs:    cpus,
		FromTSC: a.prevKW.TSC,
		ToTSC:   kw.TSC,
		Last:    last,
	}
	f.Kernel = ktau.DeltaSnapshot(a.prevKW, kw).Events
	a.prevKW = kw
	next := make(map[int]ktau.Snapshot, len(procs))
	pd := &a.pd
	for _, ps := range procs {
		ktau.DeltaSnapshotInto(a.prevProc[ps.PID], ps, pd)
		next[ps.PID] = ps
		if pd.Empty() {
			continue
		}
		var ticks uint64
		if te := pd.FindDelta(TimerTickEvent); te != nil {
			ticks = te.DCalls
		}
		f.Procs = append(f.Procs, ProcDelta{
			PID:    ps.PID,
			Name:   ps.Name,
			DTotal: pd.TotalDExcl(),
			DIRQ:   groupExcl(pd.Events, ktau.GroupIRQ),
			DBH:    groupExcl(pd.Events, ktau.GroupBH),
			DSched: groupExcl(pd.Events, ktau.GroupSched),
			DTCP:   groupExcl(pd.Events, ktau.GroupTCP),
			DTicks: ticks,
		})
	}
	a.prevProc = next
	return f
}

// gapFrame builds the placeholder for a round whose data stayed unreadable.
// The baseline is left untouched, so the next successful round's deltas
// cover the whole span including this gap.
func (a *agentState) gapFrame(node string, idx, round, cpus int, last bool) Frame {
	return Frame{
		Node:    node,
		NodeIdx: idx,
		Round:   round,
		CPUs:    cpus,
		FromTSC: a.prevKW.TSC,
		ToTSC:   a.prevKW.TSC,
		Last:    last,
		Gap:     true,
	}
}

// agent is one node's kmond round: read /proc/ktau through the node's
// shared procfs instance (so injected procfs faults reach it), delta-encode
// against the previous round — or emit a gap frame when the data stayed
// unreadable — and encode the frame.
type agent struct {
	*agentState
	h        *libktau.Handle
	n        *cluster.Node
	idx      int
	interval time.Duration
	buf      []byte // frame-encode scratch, reused every round
}

func (pm *PerfMon) newAgent(idx int, n *cluster.Node) ship.Agent[Frame] {
	return &agent{agentState: newAgentState(), h: libktau.Open(n.FS), n: n, idx: idx, interval: pm.cfg.Interval}
}

func (a *agent) Round(u *kernel.UCtx, round int, last bool) (Frame, []byte) {
	var kw ktau.Snapshot
	var procs []ktau.Snapshot
	readOK := ship.Read(u, a.interval, func() error {
		var errKW, errAll error
		kw, errKW = a.h.GetProfile(libktau.ScopeKernelWide, 0)
		procs, errAll = a.h.GetProfiles(libktau.ScopeAll, 0)
		if errKW != nil {
			return errKW
		}
		return errAll
	})
	var f Frame
	if readOK {
		f = a.buildFrame(a.n.Name, a.idx, round, u.Kernel().NumCPUs(), last, kw, procs)
	} else {
		f = a.gapFrame(a.n.Name, a.idx, round, u.Kernel().NumCPUs(), last)
	}
	a.buf = AppendFrame(a.buf[:0], f)
	if readOK {
		// User-space processing: snapshot walk + delta encode.
		readBytes := 0
		for _, s := range procs {
			readBytes += 64 + 48*len(s.Events) + 64*len(s.Atomics) + 64*len(s.Mapped)
		}
		ship.Charge(u, readBytes)
	}
	return f, a.buf
}

func (a *agent) Shipped(Frame, bool) {}
