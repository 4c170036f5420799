package tracepipe

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"ktau/internal/ktau"
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
	// names is the one name table of every stored record; nameIdx maps each
	// name to its index. Both only grow.
	names   []string
	nameIdx map[string]uint32
	// msgs holds the MPI endpoint events: one exact-size segment per frame
	// that carried any, in arrival order.
	msgs []msgSeg
	// remap, enc and placed are ingest's scratch: the name-table index of
	// each entry of the frame's dictionary, the frame's records encoded in
	// stream order, and the segment of each stream that carried any.
	remap  []uint32
	enc    []byte
	placed []placedSeg
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
	segs []seg
}

// seg is one frame's records of one stream, stored as appendRec lays them
// out on the wire, each name an index into the collector's name table and
// each TSC a delta from the segment's previous record. recs holds no
// pointer, so the garbage collector never scans it, and it takes about 5
// bytes a record where a decoded Rec takes 40. n counts the records, and lo
// and hi are the least and greatest TSC among them.
type seg struct {
	recs   []byte
	n      int
	lo, hi int64
}

// placedSeg is a segment of the frame being ingested: until the frame's
// block is cut, its records are enc[the previous segment's end:end].
type placedSeg struct {
	st  *streamState
	end int
	seg seg
}

// segReader decodes records in the wire's per-record layout in order: a
// stored segment's, or a shipment's. It checks nothing, since it reads
// only bytes the pipeline wrote or the sink's decode checked.
type segReader struct {
	b   []byte
	off int
	tsc int64 // the last record's TSC
}

// uv decodes a uvarint.
func (r *segReader) uv() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := r.b[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// zz decodes a zigzag varint.
func (r *segReader) zz() int64 {
	u := r.uv()
	return int64(u>>1) ^ -int64(u&1)
}

// skip steps over a varint.
func (r *segReader) skip() {
	for r.b[r.off] >= 0x80 {
		r.off++
	}
	r.off++
}

// nextTSC decodes the next record's TSC and leaves its other fields, which
// rest or skipRest reads next.
func (r *segReader) nextTSC() int64 {
	r.tsc += r.zz()
	return r.tsc
}

// rest decodes the fields of the record whose TSC nextTSC returned.
func (r *segReader) rest() (name uint32, kind ktau.RecordKind, val int64) {
	name = uint32(r.uv())
	kind = ktau.RecordKind(r.b[r.off])
	r.off++
	return name, kind, r.zz()
}

// skipRest steps over the fields of the record whose TSC nextTSC returned.
func (r *segReader) skipRest() {
	r.skip()
	r.off++
	r.skip()
}

// msgSeg is one ingested frame's MPI endpoint events.
type msgSeg struct {
	node int
	msgs []Msg
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
	c := &Collector{hz: hz, streams: make(map[streamKey]*streamState), nameIdx: make(map[string]uint32)}
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

// Ingest merges one frame into the collector. wireBytes is the on-wire size
// of the shipment, 0 for the collector's local loopback. The records and
// message events are copied into the collector's own storage, so the
// caller may reuse the frame once Ingest returns.
func (c *Collector) Ingest(f Frame, wireBytes int) {
	s := shipmentPool.Get().(*shipment)
	s.fromFrame(&f)
	c.ingest(s, wireBytes)
	shipmentPool.Put(s)
}

// ingest merges one shipment into the collector. Each dictionary name is
// interned into the collector's name table once, and each record is then
// re-encoded with its name's table index into the reused scratch, one
// stream after another, and copied into one exact-size block for the
// frame, each stream's segment a capacity-capped part of it. The
// shipment's records were written by an agent or checked by the sink's
// decode, so they are read unchecked.
func (c *Collector) ingest(s *shipment, wireBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.node(s.NodeIdx)
	if s.Node != "" {
		n.name = s.Node
	}
	n.frames++
	n.wireBytes += uint64(wireBytes)
	if s.Backlog > n.backlogPeak {
		n.backlogPeak = s.Backlog
	}
	if s.Throttle > n.throttlePeak {
		n.throttlePeak = s.Throttle
	}
	n.readErrs = maxU64(n.readErrs, s.ReadErrs)
	n.agentDrops = maxU64(n.agentDrops, s.Dropped)
	n.agentDropR = maxU64(n.agentDropR, s.DroppedRecs)
	c.remap = c.remap[:0]
	for _, name := range s.dict.names {
		i, ok := c.nameIdx[name]
		if !ok {
			i = uint32(len(c.names))
			c.names = append(c.names, name)
			c.nameIdx[name] = i
		}
		c.remap = append(c.remap, i)
	}
	c.enc, c.placed = c.enc[:0], c.placed[:0]
	from := 0
	for _, h := range s.streams {
		key := streamKey{NodeIdx: s.NodeIdx, PID: h.pid, Kernel: h.kernel}
		st := c.streams[key]
		if st == nil {
			st = &streamState{}
			c.streams[key] = st
		}
		if h.task != "" {
			st.task = h.task
		}
		st.lost = maxU64(st.lost, h.lost)
		st.sampled = maxU64(st.sampled, h.sampled)
		if h.n > 0 {
			sg := seg{n: h.n, lo: math.MaxInt64, hi: math.MinInt64}
			r := segReader{b: s.recs[from:h.end]}
			for range h.n {
				prev := r.tsc
				tsc := r.nextTSC()
				name, kind, val := r.rest()
				c.enc = appendRec(c.enc, tsc-prev, c.remap[name], kind, val)
				sg.lo, sg.hi = min(sg.lo, tsc), max(sg.hi, tsc)
			}
			c.placed = append(c.placed, placedSeg{st: st, end: len(c.enc), seg: sg})
		}
		from = h.end
		if h.kernel {
			n.kernRecs += uint64(h.n)
		} else {
			n.userRecs += uint64(h.n)
		}
	}
	if len(c.placed) > 0 {
		block, start := make([]byte, len(c.enc)), 0
		copy(block, c.enc)
		for _, p := range c.placed {
			p.seg.recs = block[start:p.end:p.end]
			p.st.segs = append(p.st.segs, p.seg)
			start = p.end
		}
	}
	if len(s.msgs) > 0 {
		c.msgs = append(c.msgs, msgSeg{node: s.NodeIdx, msgs: append([]Msg(nil), s.msgs...)})
	}
	n.msgEvents += uint64(len(s.msgs))
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
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make([]bool, len(c.names))
	for _, n := range names {
		if i, ok := c.nameIdx[n]; ok {
			want[i] = true
		}
	}
	out := make([]uint64, len(c.nodes))
	for key, st := range c.streams {
		if key.NodeIdx < 0 || key.NodeIdx >= len(out) {
			continue
		}
		for _, sg := range st.segs {
			r := segReader{b: sg.recs}
			for range sg.n {
				r.nextTSC()
				if name, _, _ := r.rest(); want[name] {
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
