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
	*ship.Transport[Frame]
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
func (tp *Pipeline) setup() (ship.Hooks[Frame], error) {
	c, cfg := tp.c, tp.cfg
	tp.col = NewCollector(len(c.Nodes), c.Node(0).K.Params().HZ)
	tp.stats = make([]*agentStats, len(c.Nodes))
	if cfg.Focus != nil && cfg.Adaptive == nil {
		return ship.Hooks[Frame]{}, errors.New("tracepipe: Focus requires Adaptive")
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
			return ship.Hooks[Frame]{}, errors.New("tracepipe: Focus requires a perfmon store to watch")
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
	return ship.Hooks[Frame]{
		Decode:   DecodeFrame,
		Last:     func(f Frame) bool { return f.Last },
		Ingest:   tp.col.Ingest,
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
	// recs backs every kernel stream's records in a round's frame, reused
	// every round: by the next round the frame has been encoded for the wire
	// or ingested locally, and local ingest copies the records out.
	recs []Rec
}

func (tp *Pipeline) newAgent(idx int, n *cluster.Node) ship.Agent[Frame] {
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

func (a *agent) Round(u *kernel.UCtx, round int, last bool) (Frame, []byte) {
	var pol Policy
	if ad := a.tp.ad; ad != nil {
		base := ad.Base
		if box := a.tp.polBoxes[a.idx]; box.ok {
			base = box.p
		}
		pol = ad.effective(base, a.thr.level)
	}
	f := a.drainRound(u, round, last, pol)
	f.Throttle = uint32(a.thr.level)
	a.buf = AppendFrame(a.buf[:0], f)
	// User-space processing: ring walks + dictionary encode.
	ship.Charge(u, len(a.buf))
	return f, a.buf
}

// Shipped folds the round's shipping outcome into the self-reported loss
// accounting and the throttle state machine.
func (a *agent) Shipped(f Frame, ok bool) {
	if !ok {
		a.st.dropped++
		a.st.droppedRecs += uint64(f.records())
	}
	if a.tp.ad != nil {
		a.thr.observe(a.tp.ad, f.Backlog, !ok)
	}
}

// drainRound drains every ring on the node into one frame: kernel trace
// rings via the instrumented /proc/ktau/trace two-call protocol (task
// creation order, so the stream layout is deterministic), then the
// configured user-level rings and MPI message logs. When pol carries an
// adaptive policy (smp non-nil), each drained record is kept or discarded by
// the node's seeded sampler; discards are counted per stream so the loss
// accounting stays exact. MPI message events are never sampled — flow
// correlation needs both endpoints.
func (a *agent) drainRound(u *kernel.UCtx, round int, last bool, pol Policy) Frame {
	cfg, n, idx, st, smp := a.tp.cfg, a.n, a.idx, a.st, a.smp
	f := Frame{Node: n.Name, NodeIdx: idx, Round: round, Last: last}
	reg := n.K.Ktau().Reg

	// One backing array holds every kernel stream's records this round,
	// sized up front instead of by per-record append growth and reused from
	// round to round (see agent.recs). Streams are capacity-capped
	// subslices, so a later append to recBuf can never alias an earlier
	// stream.
	tasks := n.K.AllTasks()
	waitingRecs := 0
	for _, t := range tasks {
		if ring := t.KD().Trace(); ring != nil {
			waitingRecs += ring.Len()
		}
	}
	if cap(a.recs) < waitingRecs {
		a.recs = make([]Rec, 0, waitingRecs)
	}
	recBuf := a.recs[:0]

	for _, t := range tasks {
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
		f.Backlog += waiting

		var dump libktau.TraceDump
		readOK := ship.Read(u, cfg.Interval, func() error {
			var err error
			dump, err = a.h.GetTrace(t.PID())
			return err
		})
		if !readOK {
			st.readErrs++
			continue
		}
		m = st.stream(key)
		s := Stream{PID: t.PID(), Task: t.Name(), Kernel: true, Lost: dump.Lost}
		start := len(recBuf)
		for _, r := range dump.Records {
			if smp != nil && !sample(smp, pol.rateFor(reg.GroupOf(r.Ev))) {
				m.sampled++
				continue
			}
			recBuf = append(recBuf, Rec{TSC: r.TSC, Name: reg.Name(r.Ev), Kind: r.Kind, Val: r.Val})
		}
		s.Recs = recBuf[start:len(recBuf):len(recBuf)]
		s.Sampled = m.sampled
		if len(s.Recs) > 0 || s.Lost != m.lastLost || m.sampled != m.shipped {
			m.lastLost = s.Lost
			m.shipped = m.sampled
			f.Streams = append(f.Streams, s)
		}
	}

	if cap(recBuf) > cap(a.recs) {
		a.recs = recBuf[:0] // records outran the sizing while the agent read
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
			f.Backlog += uint64(len(recs))
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
			f.Streams = append(f.Streams, Stream{
				PID: src.PID, Task: src.Task, Lost: lost, Sampled: m.sampled, Recs: recs,
			})
		}
	}
	if cfg.MsgSources != nil {
		for _, src := range cfg.MsgSources(idx) {
			f.Msgs = append(f.Msgs, src.Drain()...)
		}
	}
	f.ReadErrs = st.readErrs
	f.Dropped = st.dropped
	f.DroppedRecs = st.droppedRecs
	return f
}
