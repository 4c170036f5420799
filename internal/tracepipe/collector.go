package tracepipe

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"ktau/internal/promfmt"
)

// Collector accumulates trace frames at the elected collector node and
// answers the cluster-wide views: the deterministic cross-node merge, MPI
// send→recv flow correlation, and per-node drop/loss/backlog self-metrics.
// Like the perfmon store, it is held by the Pipeline (host side), so it
// survives a collector-node crash and failover with every pre-crash record
// intact.
type Collector struct {
	mu sync.Mutex
	hz int64

	nodes   []*nodeTraceState
	streams map[streamKey]*streamState
	msgs    []nodeMsg
}

// streamKey identifies one ring's record stream across frames.
type streamKey struct {
	NodeIdx int
	PID     int
	Kernel  bool
}

type streamState struct {
	task    string
	lost    uint64 // max cumulative ring-overwrite count seen
	sampled uint64 // max cumulative sampled-out count seen
	// segs holds the stream's records as ingested: one segment per frame
	// that carried any, in arrival order (chronological per stream). A
	// segment is never appended to or written after it is stored.
	segs [][]Rec
}

type nodeMsg struct {
	nodeIdx int
	m       Msg
}

type nodeTraceState struct {
	name         string
	frames       uint64
	wireBytes    uint64
	kernRecs     uint64
	userRecs     uint64
	msgEvents    uint64
	backlogPeak  uint64
	throttlePeak uint32 // deepest agent throttle level reported
	readErrs     uint64 // agent-reported (cumulative, last seen)
	agentDrops   uint64 // agent-reported dropped frames
	agentDropR   uint64 // agent-reported dropped records
	sinkDrops    uint64 // collector-side damaged/desynced frames
	down         bool
}

// NewCollector creates an empty collector for a cluster of the given size;
// hz converts virtual-TSC cycles to time in the exported views.
func NewCollector(nodes int, hz int64) *Collector {
	c := &Collector{hz: hz, streams: make(map[streamKey]*streamState)}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, &nodeTraceState{name: fmt.Sprintf("node%d", i)})
	}
	return c
}

func (c *Collector) node(idx int) *nodeTraceState {
	for len(c.nodes) <= idx {
		c.nodes = append(c.nodes, &nodeTraceState{name: fmt.Sprintf("node%d", len(c.nodes))})
	}
	return c.nodes[idx]
}

// Ingest merges one decoded frame into the collector. wireBytes is the
// on-wire size of the shipment, 0 for the collector's local loopback. A
// shipped frame was decoded for this call alone, so its streams' records are
// kept where they are; a loopback frame's records alias the agent's round
// buffer, which the next round overwrites, so they are copied once.
func (c *Collector) Ingest(f Frame, wireBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.node(f.NodeIdx)
	if f.Node != "" {
		n.name = f.Node
	}
	n.frames++
	n.wireBytes += uint64(wireBytes)
	if f.Backlog > n.backlogPeak {
		n.backlogPeak = f.Backlog
	}
	if f.Throttle > n.throttlePeak {
		n.throttlePeak = f.Throttle
	}
	n.readErrs = maxU64(n.readErrs, f.ReadErrs)
	n.agentDrops = maxU64(n.agentDrops, f.Dropped)
	n.agentDropR = maxU64(n.agentDropR, f.DroppedRecs)
	for _, s := range f.Streams {
		key := streamKey{NodeIdx: f.NodeIdx, PID: s.PID, Kernel: s.Kernel}
		st := c.streams[key]
		if st == nil {
			st = &streamState{}
			c.streams[key] = st
		}
		if s.Task != "" {
			st.task = s.Task
		}
		st.lost = maxU64(st.lost, s.Lost)
		st.sampled = maxU64(st.sampled, s.Sampled)
		if len(s.Recs) > 0 {
			seg := s.Recs
			if wireBytes == 0 {
				seg = slices.Clone(seg)
			}
			st.segs = append(st.segs, seg)
		}
		if s.Kernel {
			n.kernRecs += uint64(len(s.Recs))
		} else {
			n.userRecs += uint64(len(s.Recs))
		}
	}
	for _, m := range f.Msgs {
		c.msgs = append(c.msgs, nodeMsg{nodeIdx: f.NodeIdx, m: m})
	}
	n.msgEvents += uint64(len(f.Msgs))
}

// DropFrame counts one damaged or desynced frame from the node (sink side).
func (c *Collector) DropFrame(idx int) {
	c.mu.Lock()
	c.node(idx).sinkDrops++
	c.mu.Unlock()
}

// MarkDown flags a node that stopped reporting (crash or persistent
// silence).
func (c *Collector) MarkDown(idx int) {
	c.mu.Lock()
	c.node(idx).down = true
	c.mu.Unlock()
}

// SetNodeName pre-assigns a node's display name (Deploy does this so nodes
// that never manage to ship a frame still appear, as absences, in the
// exported views).
func (c *Collector) SetNodeName(idx int, name string) {
	c.mu.Lock()
	c.node(idx).name = name
	c.mu.Unlock()
}

// HZ returns the cycles-per-second clock used for exported timestamps.
func (c *Collector) HZ() int64 { return c.hz }

// NodeStats is one node's pipeline self-metrics.
type NodeStats struct {
	Node    string
	NodeIdx int
	// Frames / WireBytes count successfully ingested shipments.
	Frames    uint64
	WireBytes uint64
	// KernRecords / UserRecords / MsgEvents count ingested payload.
	KernRecords uint64
	UserRecords uint64
	MsgEvents   uint64
	// KernRingLost / UserRingLost are ring-buffer overwrites on the node
	// (records produced faster than the agent drained them).
	KernRingLost uint64
	UserRingLost uint64
	// KernSampledOut / UserSampledOut count records the node's sampling
	// policy deliberately discarded (exact loss accounting: produced =
	// ingested + ring lost + sampled out).
	KernSampledOut uint64
	UserSampledOut uint64
	// ThrottlePeak is the deepest backlog-throttle level the agent reported.
	ThrottlePeak uint32
	// ReadErrs counts agent rounds whose procfs trace reads kept failing.
	ReadErrs uint64
	// AgentDroppedFrames / AgentDroppedRecords count shipments the agent
	// could not deliver (send timeouts, broken links).
	AgentDroppedFrames  uint64
	AgentDroppedRecords uint64
	// SinkDroppedFrames counts shipments damaged in flight or desynced.
	SinkDroppedFrames uint64
	// BacklogPeak is the most records ever found waiting in the node's
	// rings at one drain.
	BacklogPeak uint64
	// Down marks a node that stopped reporting.
	Down bool
}

// Stats returns per-node self-metrics in node-index order.
func (c *Collector) Stats() []NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStats, 0, len(c.nodes))
	for i, n := range c.nodes {
		s := NodeStats{
			Node: n.name, NodeIdx: i,
			Frames: n.frames, WireBytes: n.wireBytes,
			KernRecords: n.kernRecs, UserRecords: n.userRecs,
			MsgEvents: n.msgEvents, ReadErrs: n.readErrs,
			AgentDroppedFrames:  n.agentDrops,
			AgentDroppedRecords: n.agentDropR,
			SinkDroppedFrames:   n.sinkDrops,
			BacklogPeak:         n.backlogPeak,
			ThrottlePeak:        n.throttlePeak,
			Down:                n.down,
		}
		for key, st := range c.streams {
			if key.NodeIdx != i {
				continue
			}
			if key.Kernel {
				s.KernRingLost += st.lost
				s.KernSampledOut += st.sampled
			} else {
				s.UserRingLost += st.lost
				s.UserSampledOut += st.sampled
			}
		}
		out = append(out, s)
	}
	return out
}

// Totals sums records and flow events across the cluster.
func (c *Collector) Totals() (records, msgs uint64) {
	for _, s := range c.Stats() {
		records += s.KernRecords + s.UserRecords
		msgs += s.MsgEvents
	}
	return records, msgs
}

// SampledOut sums the records the cluster's sampling policies discarded.
func (c *Collector) SampledOut() uint64 {
	var n uint64
	for _, s := range c.Stats() {
		n += s.KernSampledOut + s.UserSampledOut
	}
	return n
}

// NodeEventCounts returns, per node index, how many ingested records carry
// one of the given event names — the per-node evidence a detection-quality
// check compares against the profile-side detectors (e.g. counting
// "schedule"/"schedule_vol" records to finger the noisiest node).
func (c *Collector) NodeEventCounts(names ...string) []uint64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.nodes))
	for key, st := range c.streams {
		if key.NodeIdx < 0 || key.NodeIdx >= len(out) {
			continue
		}
		for _, seg := range st.segs {
			for _, r := range seg {
				if want[r.Name] {
					out[key.NodeIdx]++
				}
			}
		}
	}
	return out
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// WritePrometheus exports the pipeline self-metrics in Prometheus text
// format, alongside the perfmon store's profile metrics. Output is
// deterministic: nodes in index order.
func (c *Collector) WritePrometheus(w io.Writer) error {
	stats := c.Stats()
	esc := promfmt.EscapeLabel
	section := func(name, help, typ string, val func(NodeStats) (uint64, bool)) error {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
			return err
		}
		for _, s := range stats {
			v, ok := val(s)
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s{node=%s} %d\n", name, esc(s.Node), v); err != nil {
				return err
			}
		}
		return nil
	}
	steps := []func() error{
		func() error {
			return section("ktau_tracepipe_frames_total", "Trace frames ingested per node.", "counter",
				func(s NodeStats) (uint64, bool) { return s.Frames, true })
		},
		func() error {
			if _, err := fmt.Fprintf(w, "# HELP ktau_tracepipe_records_total Trace records ingested per node and origin.\n# TYPE ktau_tracepipe_records_total counter\n"); err != nil {
				return err
			}
			for _, s := range stats {
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_records_total{node=%s,origin=\"kernel\"} %d\n", esc(s.Node), s.KernRecords); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_records_total{node=%s,origin=\"user\"} %d\n", esc(s.Node), s.UserRecords); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			if _, err := fmt.Fprintf(w, "# HELP ktau_tracepipe_ring_lost_total Ring-buffer overwrites (records lost before draining).\n# TYPE ktau_tracepipe_ring_lost_total counter\n"); err != nil {
				return err
			}
			for _, s := range stats {
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_ring_lost_total{node=%s,origin=\"kernel\"} %d\n", esc(s.Node), s.KernRingLost); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_ring_lost_total{node=%s,origin=\"user\"} %d\n", esc(s.Node), s.UserRingLost); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			if _, err := fmt.Fprintf(w, "# HELP ktau_tracepipe_sampled_out_total Records discarded by the node's sampling policy.\n# TYPE ktau_tracepipe_sampled_out_total counter\n"); err != nil {
				return err
			}
			for _, s := range stats {
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_sampled_out_total{node=%s,origin=\"kernel\"} %d\n", esc(s.Node), s.KernSampledOut); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "ktau_tracepipe_sampled_out_total{node=%s,origin=\"user\"} %d\n", esc(s.Node), s.UserSampledOut); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			return section("ktau_tracepipe_throttle_peak_level", "Deepest backlog-throttle level the node's agent reached.", "gauge",
				func(s NodeStats) (uint64, bool) { return uint64(s.ThrottlePeak), true })
		},
		func() error {
			return section("ktau_tracepipe_msg_events_total", "MPI message endpoint events ingested per node.", "counter",
				func(s NodeStats) (uint64, bool) { return s.MsgEvents, true })
		},
		func() error {
			return section("ktau_tracepipe_read_errors_total", "Agent rounds whose trace reads kept failing.", "counter",
				func(s NodeStats) (uint64, bool) { return s.ReadErrs, true })
		},
		func() error {
			return section("ktau_tracepipe_agent_dropped_frames_total", "Frames the node's agent failed to ship.", "counter",
				func(s NodeStats) (uint64, bool) { return s.AgentDroppedFrames, true })
		},
		func() error {
			return section("ktau_tracepipe_agent_dropped_records_total", "Records inside frames the agent failed to ship.", "counter",
				func(s NodeStats) (uint64, bool) { return s.AgentDroppedRecords, true })
		},
		func() error {
			return section("ktau_tracepipe_sink_dropped_frames_total", "Frames damaged in flight or desynced at the sink.", "counter",
				func(s NodeStats) (uint64, bool) { return s.SinkDroppedFrames, true })
		},
		func() error {
			return section("ktau_tracepipe_backlog_peak_records", "Most records found waiting in a node's rings at one drain.", "gauge",
				func(s NodeStats) (uint64, bool) { return s.BacklogPeak, true })
		},
		func() error {
			return section("ktau_tracepipe_wire_bytes_total", "On-wire trace shipment bytes ingested per node.", "counter",
				func(s NodeStats) (uint64, bool) { return s.WireBytes, true })
		},
		func() error {
			return section("ktau_tracepipe_node_down", "1 when the node stopped reporting traces.", "gauge",
				func(s NodeStats) (uint64, bool) {
					if s.Down {
						return 1, true
					}
					return 0, true
				})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONLines exports one JSON object per node (node-index order) with
// the same self-metrics as WritePrometheus.
func (c *Collector) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range c.Stats() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// sortedStreamKeys returns the stream keys in deterministic merge order:
// node index, then pid, user stream before kernel stream. Callers hold mu.
func (c *Collector) sortedStreamKeys() []streamKey {
	keys := make([]streamKey, 0, len(c.streams))
	for k := range c.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.NodeIdx != b.NodeIdx {
			return a.NodeIdx < b.NodeIdx
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return !a.Kernel && b.Kernel
	})
	return keys
}
