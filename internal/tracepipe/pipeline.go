// Package tracepipe is the cluster-wide streaming trace pipeline: the
// trace-data half of the paper's §4.5 KTAUD story, completing what perfmon
// does for profiles. Each node runs a KTAUD-style agent that periodically
// drains every task's kernel trace ring through the instrumented
// /proc/ktau/trace path (plus the TAU user-level rings and the MPI message
// log exposed by the deployment's sources), frames the records with
// node/pid/lost-count metadata, and ships them over the simulated TCP
// network to an elected collector — through the same instrumented path as
// application traffic, so the pipeline observes its own interference.
//
// The collector performs a deterministic cross-node virtual-time merge
// (reusing the runner's (time, source, seq) ordering discipline), correlates
// MPI send/recv endpoint events into Chrome trace-event flow arrows (the
// message lines of the paper's Fig. 2-D), tracks per-node
// drop/loss/backlog self-metrics alongside the perfmon views, and writes a
// whole-cluster Perfetto-loadable trace.
//
// The pipeline runs on the agent→collector transport it shares with perfmon
// (package ship), and so has the same fault discipline: agents retry
// transient procfs errors with bounded backoff and self-report rounds that
// stayed unreadable; a send that times out drops the frame (counted, never
// silent) and re-elects a live collector when the old one died; sinks
// receive with timeouts, count-and-drop damaged frames, and mark silent
// nodes down.
package tracepipe

import (
	"errors"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/libktau"
	"ktau/internal/ship"
	"ktau/internal/sim"
)

// UserSource exposes one process's user-level (TAU) trace ring to the
// node's agent. Drain must return the buffered records (already resolved to
// names) and the ring's cumulative lost count, consuming the buffer; the
// returned slice's ownership passes to the pipeline (adaptive deployments
// filter it in place). It is called from the agent's task on the process's
// own node, so it runs inside that node's engine and needs no locking.
type UserSource struct {
	PID   int
	Task  string
	Drain func() (recs []Rec, lost uint64)
}

// MsgSource exposes one process's MPI message endpoint log to the node's
// agent (same execution context rules as UserSource).
type MsgSource struct {
	Drain func() []Msg
}

// Config parameterises a deployment. Retry, timeout and cost settings are
// the shared transport's (package ship), scaled by Interval.
type Config struct {
	// Interval between collection rounds on every agent (default 25ms —
	// trace rings fill much faster than profiles change).
	Interval time.Duration
	// Rounds bounds each agent's collection loop (0 = run until Stop).
	Rounds int
	// UserSources returns the node's user-level trace rings (nil = none).
	UserSources func(nodeIdx int) []UserSource
	// MsgSources returns the node's MPI message logs (nil = none).
	MsgSources func(nodeIdx int) []MsgSource
	// Adaptive, when non-nil, enables deterministic per-group sampling and
	// backlog throttling on every agent (nil = full tracing, the historical
	// behaviour — no RNG draws are made, so existing runs are unperturbed).
	Adaptive *Adaptive
	// Focus, when non-nil, runs the collector-driven policy loop: flagged
	// nodes get Focus.Full, everyone else stays on Adaptive.Base. Requires
	// Adaptive and a perfmon store to watch.
	Focus *FocusConfig
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
}

// Pipeline is a deployed trace pipeline. The embedded transport provides
// Tasks, Collector, Failovers and Stop.
type Pipeline struct {
	*ship.Transport[shipment]
	cfg Config
	c   *cluster.Cluster
	col *Collector

	// Adaptive-mode state. ad/focus are defaulted copies of the config's
	// pointers; polBoxes[i] is node i's pushed-policy slot (written by posts
	// on node i's engine, read by node i's agent); stats[i] is node i's
	// agent bookkeeping (read by tests once the cluster is quiescent);
	// lastPushed and nextFocus belong to the barrier-hook focus loop.
	ad         *Adaptive
	focus      *FocusConfig
	polBoxes   []*policyBox
	stats      []*agentStats
	lastPushed []Policy
	nextFocus  sim.Time
}

// Deploy elects a collector (ship.Elect: most CPUs, lowest index, judged
// from barrier-published crash views), connects every other node to it over
// the simulated network, and spawns the per-node trace agent daemons
// ("ktraced") plus one sink ("ktrace-sink") per connection on the
// collector. Call before driving the workload; Stop and drain afterwards.
func Deploy(c *cluster.Cluster, cfg Config) (*Pipeline, error) {
	cfg.defaults()
	tp := &Pipeline{cfg: cfg, c: c}
	tr, err := ship.Deploy(c, ship.Config{
		Name: "tracepipe", Agent: "ktraced", Sink: "ktrace-sink",
		Interval: cfg.Interval, Rounds: cfg.Rounds,
	}, tp.setup)
	if err != nil {
		return nil, err
	}
	tp.Transport = tr
	return tp, nil
}

// setup builds the collector store and the adaptive/focus state once the
// transport has elected a collector, and returns the pipeline's hooks.
func (tp *Pipeline) setup() (ship.Hooks[shipment], error) {
	c, cfg := tp.c, tp.cfg
	tp.col = NewCollector(len(c.Nodes), c.Node(0).K.Params().HZ)
	tp.stats = make([]*agentStats, len(c.Nodes))
	if cfg.Focus != nil && cfg.Adaptive == nil {
		return ship.Hooks[shipment]{}, errors.New("tracepipe: Focus requires Adaptive")
	}
	if cfg.Adaptive != nil {
		ad := cfg.Adaptive.withDefaults()
		tp.ad = &ad
		tp.polBoxes = make([]*policyBox, len(c.Nodes))
		for i := range tp.polBoxes {
			tp.polBoxes[i] = &policyBox{}
		}
	}
	if cfg.Focus != nil {
		if cfg.Focus.Store == nil {
			return ship.Hooks[shipment]{}, errors.New("tracepipe: Focus requires a perfmon store to watch")
		}
		fc := cfg.Focus.withDefaults()
		tp.focus = &fc
		tp.lastPushed = make([]Policy, len(c.Nodes))
		for i := range tp.lastPushed {
			tp.lastPushed[i] = tp.ad.Base
		}
		c.Runner.OnBarrier(tp.focusTick)
	}
	for i, n := range c.Nodes {
		tp.col.SetNodeName(i, n.Name)
	}
	return ship.Hooks[shipment]{
		// Each sink decodes every frame into its own shipment; the collector
		// copies out what it keeps.
		Decode: func(dst *shipment, b []byte) error { return dst.decode(b) },
		Last:   func(s shipment) bool { return s.Last },
		Ingest: func(s shipment, wireBytes int) {
			tp.col.ingest(&s, wireBytes)
		},
		Drop:     tp.col.DropFrame,
		MarkDown: tp.col.MarkDown,
		NewAgent: tp.newAgent,
	}, nil
}

// Store returns the collector's trace store (merge, flows, exports).
func (tp *Pipeline) Store() *Collector { return tp.col }

// CollectorNode returns the current collector node index.
func (tp *Pipeline) CollectorNode() int { return tp.Collector() }

// Config returns the deployment configuration (defaults applied).
func (tp *Pipeline) Config() Config { return tp.cfg }

// streamMeta is one stream's per-agent bookkeeping: the cumulative lost and
// sampled-out counters, and the values last shipped to the collector (so a
// quiet stream is skipped, not re-sent).
type streamMeta struct {
	lastLost uint64
	sampled  uint64
	shipped  uint64 // value of sampled when the stream was last shipped
}

// agentStats is the cumulative self-reported loss accounting one agent
// carries between rounds and embeds in every frame. The streams map is
// bounded: entries for exited tasks are evicted once their final state has
// shipped (perfmon's prevProc discipline), so task churn cannot grow it
// without limit.
type agentStats struct {
	readErrs    uint64
	dropped     uint64
	droppedRecs uint64
	streams     map[streamKey]*streamMeta
}

// stream returns (creating if needed) the bookkeeping for one stream key.
func (st *agentStats) stream(key streamKey) *streamMeta {
	m := st.streams[key]
	if m == nil {
		m = &streamMeta{}
		st.streams[key] = m
	}
	return m
}

// agent is one node's ktraced round. Kernel rings are drained through the
// node's shared procfs instance (so injected procfs faults reach the trace
// reads), user rings and message logs through the configured sources.
type agent struct {
	tp  *Pipeline
	h   *libktau.Handle
	n   *cluster.Node
	idx int
	st  *agentStats
	smp *sim.RNG
	thr throttle
	buf []byte // frame-encode scratch, reused every round
	// s is the round's shipment, reused every round: by the next round it
	// has been encoded for the wire or ingested locally, and ingest copies
	// what it keeps.
	s shipment
	// evIdx is indexed by kernel EventID: a non-zero entry is one more
	// than the index of the event's name in the round's dictionary.
	evIdx []uint32
	tasks []*kernel.Task // the node's tasks, listed afresh every round
	// ring is the scratch each kernel ring is decoded into before its
	// records are appended to the shipment.
	ring []ktau.Record
}

// kernName returns the dictionary index of kernel event ev's name. An
// event's first record in a round interns reg.Name(ev), as a record named
// by string would, so the dictionary keeps first-appearance order and
// names shared by several events, or by a user routine, get one index.
// Later records of the event read the index from evIdx instead of hashing
// the name again.
func (a *agent) kernName(reg *ktau.Registry, ev ktau.EventID) uint32 {
	if ev < 0 || int(ev) >= len(a.evIdx) {
		return a.s.dict.intern(reg.Name(ev))
	}
	if a.evIdx[ev] == 0 {
		a.evIdx[ev] = a.s.dict.intern(reg.Name(ev)) + 1
	}
	return a.evIdx[ev] - 1
}

func (tp *Pipeline) newAgent(idx int, n *cluster.Node) ship.Agent[shipment] {
	a := &agent{tp: tp, h: libktau.Open(n.FS), n: n, idx: idx}
	// The sampler draws from a stream derived at deployment time (never from
	// live RNG state), so adding the trace pipeline to a run perturbs no
	// other consumer's sequence and sampled runs stay byte-identical at any
	// worker count. Non-adaptive deployments make no draws at all.
	if tp.ad != nil {
		a.smp = tp.c.RNG.Stream("tracepipe/sample/" + n.Name)
	}
	a.st = &agentStats{streams: make(map[streamKey]*streamMeta)}
	tp.stats[idx] = a.st
	return a
}

func (a *agent) Round(u *kernel.UCtx, round int, last bool) (shipment, []byte) {
	var pol Policy
	if ad := a.tp.ad; ad != nil {
		base := ad.Base
		if box := a.tp.polBoxes[a.idx]; box.ok {
			base = box.p
		}
		pol = ad.effective(base, a.thr.level)
	}
	a.drainRound(u, round, last, pol)
	a.s.Throttle = uint32(a.thr.level)
	a.buf = a.s.appendTo(a.buf[:0])
	// User-space processing: ring walks + dictionary encode.
	ship.Charge(u, len(a.buf))
	return a.s, a.buf
}

// Shipped folds the round's shipping outcome into the self-reported loss
// accounting and the throttle state machine.
func (a *agent) Shipped(s shipment, ok bool) {
	if !ok {
		a.st.dropped++
		a.st.droppedRecs += uint64(s.records())
	}
	if a.tp.ad != nil {
		a.thr.observe(a.tp.ad, s.Backlog, !ok)
	}
}

// drainRound drains every ring on the node into the round's shipment a.s:
// kernel trace rings via the instrumented /proc/ktau/trace two-call
// protocol (task creation order, so the stream layout is deterministic),
// then the configured user-level rings and MPI message logs. Each kept
// record is appended in the wire's per-record layout as it is read. When
// pol carries an adaptive policy (smp non-nil), each drained record is
// kept or discarded by the node's seeded sampler; discards are counted per
// stream so the loss accounting stays exact. MPI message events are never
// sampled — flow correlation needs both endpoints.
func (a *agent) drainRound(u *kernel.UCtx, round int, last bool, pol Policy) {
	cfg, n, idx, st, smp := a.tp.cfg, a.n, a.idx, a.st, a.smp
	s := &a.s
	s.reset(frameHead{Node: n.Name, NodeIdx: idx, Round: round, Last: last})
	reg := n.K.Ktau().Reg
	clear(a.evIdx)
	if grow := reg.Len() - len(a.evIdx); grow > 0 {
		a.evIdx = append(a.evIdx, make([]uint32, grow)...)
	}

	a.tasks = n.K.AppendAllTasks(a.tasks[:0])
	for _, t := range a.tasks {
		ring := t.KD().Trace()
		if ring == nil {
			continue
		}
		waiting := uint64(ring.Len())
		key := streamKey{NodeIdx: idx, PID: t.PID(), Kernel: true}
		m, tracked := st.streams[key]
		if waiting == 0 {
			if !tracked {
				// Nothing buffered and nothing shipped before: an exited (or
				// never-active) ring with no new state. The only way an
				// untracked empty ring can show Lost > 0 is a drain that
				// already shipped that loss before the entry was evicted, so
				// skipping an exited one loses nothing.
				if t.Exited() || ring.Lost() == 0 {
					continue
				}
			} else if ring.Lost() == m.lastLost {
				if t.Exited() {
					// Final state already shipped: evict the bookkeeping so
					// the map stays bounded under task churn.
					delete(st.streams, key)
				}
				continue
			}
		}
		s.Backlog += waiting

		var dump libktau.TraceDump
		readOK := ship.Read(u, cfg.Interval, func() error {
			var err error
			dump, err = a.h.GetTraceInto(a.ring, t.PID())
			a.ring = dump.Records[:0]
			return err
		})
		if !readOK {
			st.readErrs++
			continue
		}
		m = st.stream(key)
		kept, prev := 0, int64(0)
		for _, r := range dump.Records {
			if smp != nil && !sample(smp, pol.rateFor(reg.GroupOf(r.Ev))) {
				m.sampled++
				continue
			}
			s.recs = appendRec(s.recs, r.TSC-prev, a.kernName(reg, r.Ev), r.Kind, r.Val)
			prev = r.TSC
			kept++
		}
		if kept > 0 || dump.Lost != m.lastLost || m.sampled != m.shipped {
			m.lastLost = dump.Lost
			m.shipped = m.sampled
			s.streams = append(s.streams, streamHead{pid: t.PID(), task: t.Name(), kernel: true,
				lost: dump.Lost, sampled: m.sampled, n: kept, end: len(s.recs)})
		}
	}

	if cfg.UserSources != nil {
		for _, src := range cfg.UserSources(idx) {
			recs, lost := src.Drain()
			key := streamKey{NodeIdx: idx, PID: src.PID, Kernel: false}
			m := st.streams[key]
			if m == nil {
				if len(recs) == 0 && lost == 0 {
					continue
				}
				m = st.stream(key)
			}
			s.Backlog += uint64(len(recs))
			if smp != nil {
				rate := pol.rateFor(ktau.GroupUser)
				kept := recs[:0]
				for _, r := range recs {
					if !sample(smp, rate) {
						m.sampled++
						continue
					}
					kept = append(kept, r)
				}
				recs = kept
			}
			if len(recs) == 0 && lost == m.lastLost && m.sampled == m.shipped {
				continue
			}
			m.lastLost = lost
			m.shipped = m.sampled
			s.addStream(streamHead{pid: src.PID, task: src.Task, lost: lost, sampled: m.sampled}, recs)
		}
	}
	if cfg.MsgSources != nil {
		for _, src := range cfg.MsgSources(idx) {
			s.msgs = append(s.msgs, src.Drain()...)
		}
	}
	s.ReadErrs = st.readErrs
	s.Dropped = st.dropped
	s.DroppedRecs = st.droppedRecs
}
