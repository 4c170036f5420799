// Package ship is the agent→collector transport both collection pipelines
// run on: the paper's KTAUD pattern (§4.5), where a daemon on every node
// reads /proc/ktau each round and ships what it read to a collector.
// perfmon (profile deltas) and tracepipe (trace records) each plug in only
// their frame schema, their store hooks and their per-round read; this
// package owns everything in between:
//
//   - collector election (Elect) among live nodes;
//   - the agent round pacer and the bounded procfs read-retry loop (Read);
//   - one simulated TCP connection per agent, with the decoded payloads
//     riding alongside in a Go-side FIFO (the framing convention mpisim
//     uses), so the transfer is charged as kernel work on both nodes;
//   - failover: a send that times out retires the link; the agent re-elects
//     when the collector died, reconnects and re-ships, and the new
//     collector spawns the replacement sink and counts the failover once
//     per dead node;
//   - the sink loop: preamble and body received with timeouts, damaged or
//     desynced frames counted and dropped, silent peers diagnosed, exit on
//     the agent's Last frame;
//   - the little-endian/varint wire helpers (Writer, Reader).
package ship

import (
	"fmt"
	"sync"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/tcpsim"
)

// Transport constants, shared by every pipeline. Timeouts and backoff scale
// with the pipeline's round interval.
const (
	// HeaderBytes is the fixed on-wire preamble preceding each frame's
	// payload: magic(4) + version(4) + payload length(4) + reserved(4).
	HeaderBytes = 16
	// ReadRetries bounds the procfs read attempts within one round.
	ReadRetries = 3
	// BackoffDiv sets the sleep between read retries to Interval/BackoffDiv.
	BackoffDiv = 10
	// TimeoutRounds sets every send and receive timeout to
	// TimeoutRounds×Interval; an expired send marks the collector link
	// broken, an expired receive makes the sink check on its peer.
	TimeoutRounds = 4
	// PeerDownAfter is how many consecutive receive timeouts a sink
	// tolerates before marking its node down and exiting.
	PeerDownAfter = 3
	// CostPerKB models the user-space processing cost per KiB of data an
	// agent reads or a sink ingests (as KTAUD).
	CostPerKB = 20 * time.Microsecond
)

// Elect picks the collector node deterministically among live nodes: the
// node with the most CPUs wins (it absorbs the aggregation load), ties
// broken by lowest index — a stand-in for a leader election among identical
// daemons. It returns -1 when no live node exists. Liveness is judged from
// the barrier-published crash views (Kernel.CrashedSeen), so an election run
// from inside any node's window is deterministic; after crashing a node by
// hand while the cluster is quiescent, call Cluster.PublishViews before
// electing.
func Elect(c *cluster.Cluster) int {
	best := -1
	for i, n := range c.Nodes {
		if n.K.CrashedSeen() {
			continue
		}
		if best < 0 || n.K.NumCPUs() > c.Node(best).K.NumCPUs() {
			best = i
		}
	}
	return best
}

// Read performs one procfs read with KTAUD's session-less two-call protocol,
// charging the agent a sys_ioctl before and a sys_read after each attempt.
// Transient failures are retried up to ReadRetries times, sleeping
// interval/BackoffDiv between attempts. It reports whether an attempt
// succeeded.
func Read(u *kernel.UCtx, interval time.Duration, read func() error) bool {
	for attempt := 0; attempt < ReadRetries; attempt++ {
		if attempt > 0 {
			u.Sleep(interval / BackoffDiv)
		}
		u.Syscall("sys_ioctl", func(kc *kernel.KCtx) { kc.Use(2 * time.Microsecond) })
		err := read()
		u.Syscall("sys_read", func(kc *kernel.KCtx) { kc.Use(4 * time.Microsecond) })
		if err == nil {
			return true
		}
	}
	return false
}

// Charge bills the task CostPerKB per started KiB of processed data.
func Charge(u *kernel.UCtx, bytes int) {
	u.Compute(time.Duration(bytes/1024+1) * CostPerKB)
}

// Config names and paces one deployment.
type Config struct {
	// Name prefixes deployment errors ("perfmon").
	Name string
	// Agent and Sink are the task names of the per-node daemon and of the
	// collector-side receivers.
	Agent, Sink string
	// Interval between agent rounds; Rounds bounds them (0 = run until Stop).
	Interval time.Duration
	Rounds   int
}

// Agent is one node's pipeline-specific half of an agent round.
type Agent[F any] interface {
	// Round reads the node and returns the round's frame and its encoded
	// payload. The transport copies the payload, so it may alias a scratch
	// buffer reused next round.
	Round(u *kernel.UCtx, round int, last bool) (F, []byte)
	// Shipped reports whether the round's frame was handed off (ingested
	// locally or accepted by the transport).
	Shipped(f F, ok bool)
}

// Hooks is what a pipeline plugs into the transport: its frame codec, its
// store (addressed by node index) and its per-node agents.
type Hooks[F any] struct {
	Decode   func([]byte) (F, error)
	Last     func(F) bool
	Ingest   func(f F, wireBytes int) // wireBytes is 0 for local ingest
	Drop     func(node int)           // a damaged or desynced frame
	MarkDown func(node int)           // a node that stopped reporting
	// NewAgent builds node idx's agent; it is called in node order, just
	// before that node's agent task is spawned.
	NewAgent func(idx int, n *cluster.Node) Agent[F]
}

// Transport is a deployed agent→collector transport. Its collector-side
// bookkeeping is mutated only in collector-node engine contexts (directly or
// through CrossCall) and read back once the cluster is quiescent, or at
// window barriers.
type Transport[F any] struct {
	cfg     Config
	h       Hooks[F]
	c       *cluster.Cluster
	timeout time.Duration
	// agents is indexed by node. agentDone is its barrier-published exit
	// view: sinks read it instead of the live task state.
	agents    []*kernel.Task
	agentDone []bool
	stopped   bool

	mu         sync.Mutex
	collector  int
	sinks      []*kernel.Task
	failovers  int
	downMarked []bool
}

// Deploy elects a collector, runs setup (the pipeline's own deployment,
// which returns its hooks), connects every other node to the collector over
// the simulated network and spawns, node by node, the agent and then the
// collector-side sink for its connection. It fails when the cluster is
// empty, has no live node to collect on, or setup fails.
func Deploy[F any](c *cluster.Cluster, cfg Config, setup func() (Hooks[F], error)) (*Transport[F], error) {
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("%s: cannot deploy on an empty cluster", cfg.Name)
	}
	// Deploy runs while the cluster is quiescent; refresh the published
	// views so the election sees any crash injected since the last barrier.
	c.PublishViews()
	collector := Elect(c)
	if collector < 0 {
		return nil, fmt.Errorf("%s: no live node to collect on", cfg.Name)
	}
	h, err := setup()
	if err != nil {
		return nil, err
	}
	t := &Transport[F]{
		cfg:        cfg,
		h:          h,
		c:          c,
		timeout:    TimeoutRounds * cfg.Interval,
		agentDone:  make([]bool, len(c.Nodes)),
		collector:  collector,
		downMarked: make([]bool, len(c.Nodes)),
	}
	for i, n := range c.Nodes {
		var l *link
		if i != collector {
			// The collector monitors itself without a network hop.
			l = t.connect(i, collector)
		}
		t.agents = append(t.agents, t.spawnAgent(i, n, collector, l))
		if l != nil {
			t.sinks = append(t.sinks, t.spawnSink(l))
		}
	}
	c.Runner.OnBarrier(t.publishViews)
	return t, nil
}

// publishViews refreshes the barrier-published agent-exit flags the sinks
// read. Runs at every window barrier.
func (t *Transport[F]) publishViews() {
	for i, a := range t.agents {
		t.agentDone[i] = a.Exited()
	}
}

// Collector returns the current collector node index (it changes when the
// elected node dies and the agents fail over).
func (t *Transport[F]) Collector() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.collector
}

// Failovers returns how many collector re-elections have happened.
func (t *Transport[F]) Failovers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failovers
}

// Tasks returns every task the deployment spawned (agents then sinks);
// RunUntilDone over these drains the pipeline after Stop or bounded Rounds.
// Failover spawns replacement sinks, so re-query after driving the engine.
func (t *Transport[F]) Tasks() []*kernel.Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*kernel.Task, 0, len(t.agents)+len(t.sinks))
	out = append(out, t.agents...)
	out = append(out, t.sinks...)
	return out
}

// Stop asks every agent to perform one final round (flagged Last) and exit;
// sinks exit after ingesting the final frame. Drive the engine afterwards to
// drain the pipeline.
func (t *Transport[F]) Stop() { t.stopped = true }

// spawnAgent starts node idx's daemon: the round pacer around the
// pipeline's per-round read. Every round ships a frame, so the sink's
// Last-frame handshake cannot be skipped.
func (t *Transport[F]) spawnAgent(idx int, n *cluster.Node, collector int, l *link) *kernel.Task {
	a := t.h.NewAgent(idx, n)
	return n.K.Spawn(t.cfg.Agent, func(u *kernel.UCtx) {
		r := &route{collector: collector, l: l}
		for round := 0; ; round++ {
			if t.cfg.Rounds > 0 && round >= t.cfg.Rounds {
				return
			}
			final := t.stopped
			if !final {
				u.Sleep(t.cfg.Interval)
				final = t.stopped // may have been stopped while sleeping
			}
			last := final || (t.cfg.Rounds > 0 && round == t.cfg.Rounds-1)
			f, payload := a.Round(u, round, last)
			a.Shipped(f, t.ship(r, idx, u, f, payload))
			if last {
				return
			}
		}
	}, kernel.SpawnOpts{Kind: kernel.KindDaemon})
}

// route is one agent's private view of where its frames go. Each agent owns
// its own route — there is no shared routing table to race on — and
// re-elects from the barrier-published crash views when its link breaks.
type route struct {
	collector int   // target node; -1 when no live collector exists
	l         *link // nil when the agent ingests locally (it is the collector)
}

// connect opens a fresh agent→collector connection for node idx.
func (t *Transport[F]) connect(idx, collector int) *link {
	agentConn, sinkConn := tcpsim.Connect(t.c.Node(idx).Stack, t.c.Node(collector).Stack)
	return &link{nodeIdx: idx, sinkNode: collector, agentConn: agentConn, sinkConn: sinkConn}
}

// ship delivers one frame to the agent's current collector — locally when
// this node is the collector, otherwise over the agent's link — and reports
// whether it was handed off. A send that times out means the collector is
// unreachable: the stream, and anything still queued on it, is considered
// lost, and the agent reroutes.
func (t *Transport[F]) ship(r *route, idx int, u *kernel.UCtx, f F, payload []byte) bool {
	if r.collector == idx {
		t.h.Ingest(f, 0)
		return true
	}
	if r.l != nil {
		r.l.push(payload)
		if r.l.agentConn.SendTimeout(u, HeaderBytes+len(payload), t.timeout) {
			return true
		}
		// Tell the sink — in its own engine context, so the hand-off is
		// deterministic — that the agent abandoned the link.
		t.c.CrossCall(idx, r.l.sinkNode, r.l.retire)
		r.l = nil
	}
	return t.reroute(r, idx, u, f, payload)
}

// reroute reconnects a node to a live collector after its link broke,
// re-electing first when the collector node itself is dead. The frame that
// triggered the reroute is re-shipped on the fresh link (or ingested locally
// when this node just became the collector). Collector-side bookkeeping —
// sink spawn, failover accounting, marking the dead node down — is posted to
// the new collector's engine, keeping every store mutation in a collector
// context.
func (t *Transport[F]) reroute(r *route, idx int, u *kernel.UCtx, f F, payload []byte) bool {
	dead := -1
	if r.collector < 0 || t.c.Node(r.collector).K.CrashedSeen() {
		dead = r.collector
		next := Elect(t.c)
		if next < 0 {
			// Nobody left to collect on: degrade to silence. The agent keeps
			// running so a later operator intervention could still reach it.
			r.collector = -1
			r.l = nil
			return false
		}
		r.collector = next
	}
	if r.collector == idx {
		// This node just became the collector: account for the transition
		// right here (this is the collector's engine context) and ingest
		// locally from now on.
		r.l = nil
		t.noteFailover(dead, idx)
		t.h.Ingest(f, 0)
		return true
	}
	l := t.connect(idx, r.collector)
	r.l = l
	t.c.CrossCall(idx, l.sinkNode, func() {
		t.noteFailover(dead, l.sinkNode)
		sink := t.spawnSink(l)
		t.mu.Lock()
		t.sinks = append(t.sinks, sink)
		t.mu.Unlock()
	})
	l.push(payload)
	if !l.agentConn.SendTimeout(u, HeaderBytes+len(payload), t.timeout) {
		// Still unreachable (e.g. the replacement died too, or a partition):
		// give up on this frame; the next round retries the whole path.
		t.c.CrossCall(idx, l.sinkNode, l.clearPending)
		return false
	}
	return true
}

// noteFailover records one collector transition on the (new) collector's
// side: the first reporter of a dead node marks it down and bumps the
// count, followers are deduplicated. Runs in the new collector's engine
// context.
func (t *Transport[F]) noteFailover(dead, newCollector int) {
	t.mu.Lock()
	t.collector = newCollector
	first := dead >= 0 && !t.downMarked[dead]
	if first {
		t.downMarked[dead] = true
		t.failovers++
	}
	t.mu.Unlock()
	if first {
		t.h.MarkDown(dead)
	}
}

// spawnSink starts one collector-side receiver for a link: it waits (with a
// timeout) for the fixed preamble, learns the payload length from the
// framing queue, receives the payload, decodes and ingests it. Damaged or
// desynced frames are counted and dropped, never fatal; a link that stays
// silent is diagnosed — node crashed, link replaced by failover, agent
// finished — and the sink always exits rather than blocking forever.
func (t *Transport[F]) spawnSink(l *link) *kernel.Task {
	return t.c.Node(l.sinkNode).K.Spawn(t.cfg.Sink, func(u *kernel.UCtx) {
		idx := l.nodeIdx
		node := t.c.Node(idx)
		timeouts := 0
		for {
			if !l.sinkConn.RecvTimeout(u, HeaderBytes, t.timeout) {
				timeouts++
				if l.isReplaced() {
					return // failover replaced this link; the new sink owns the stream
				}
				if node.K.CrashedSeen() {
					t.h.MarkDown(idx)
					return
				}
				if t.agentDone[idx] && l.empty() {
					return // agent finished and the stream is drained
				}
				if timeouts >= PeerDownAfter {
					t.h.MarkDown(idx)
					return
				}
				continue
			}
			timeouts = 0
			payload, ok := l.peek()
			if !ok {
				// Framing desync: preamble bytes with no queued payload.
				t.h.Drop(idx)
				continue
			}
			if !l.sinkConn.RecvTimeout(u, len(payload), t.timeout) {
				timeouts++
				if l.isReplaced() || node.K.CrashedSeen() || timeouts >= PeerDownAfter {
					t.h.Drop(idx)
					if node.K.CrashedSeen() || timeouts >= PeerDownAfter {
						t.h.MarkDown(idx)
					}
					return
				}
				continue // body still in flight; wait again without consuming
			}
			l.popFront()
			corrupt := l.sinkConn.TakeCorrupt()
			f, err := t.h.Decode(payload)
			if corrupt || err != nil {
				// Damaged in flight or undecodable: count and drop. The hole
				// shows up in the store as a missing round.
				t.h.Drop(idx)
				continue
			}
			// User-space decode + store update cost.
			Charge(u, len(payload))
			t.h.Ingest(f, HeaderBytes+len(payload))
			if t.h.Last(f) {
				return
			}
		}
	}, kernel.SpawnOpts{Kind: kernel.KindDaemon})
}

// link carries the Go-side payload queue of one agent→collector connection;
// the simulated TCP stream carries matching byte counts, so the transfer is
// fully charged as kernel work on both nodes while the payload rides
// alongside deterministically.
//
// The pending queue is pushed from the agent's node window and popped from
// the collector's, which can overlap under parallel execution — hence the
// lock. The popped values are still deterministic: a payload is pushed at
// send time, at least one wire latency (= one window barrier) before the
// sink can have received the matching preamble bytes. replaced is set and
// read only in the sink node's engine context (the agent retires a link by
// posting the flip through the runner), so the sink's exit decision cannot
// depend on worker interleaving.
type link struct {
	nodeIdx   int          // monitored node this link carries
	sinkNode  int          // collector node the sink runs on
	agentConn *tcpsim.Conn // agent-side endpoint
	sinkConn  *tcpsim.Conn // collector-side endpoint

	mu       sync.Mutex
	pending  [][]byte // encoded frames in flight, FIFO
	replaced bool     // the agent abandoned this link (failover/reconnect)
}

// push enqueues one encoded frame. The queue owns its payloads — p is copied
// out, so callers may pass a scratch buffer they will overwrite next round.
func (l *link) push(p []byte) {
	cp := append(make([]byte, 0, len(p)), p...)
	l.mu.Lock()
	l.pending = append(l.pending, cp)
	l.mu.Unlock()
}

func (l *link) peek() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return nil, false
	}
	return l.pending[0], true
}

func (l *link) popFront() {
	l.mu.Lock()
	if len(l.pending) > 0 {
		l.pending = l.pending[1:]
	}
	l.mu.Unlock()
}

func (l *link) empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) == 0
}

// clearPending discards queued payloads after a failed send; the stream
// (and anything on it) is considered lost.
func (l *link) clearPending() {
	l.mu.Lock()
	l.pending = nil
	l.mu.Unlock()
}

// retire marks the link abandoned by its agent and drops its queue. Runs on
// the sink node's engine.
func (l *link) retire() {
	l.mu.Lock()
	l.pending = nil
	l.replaced = true
	l.mu.Unlock()
}

func (l *link) isReplaced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replaced
}
