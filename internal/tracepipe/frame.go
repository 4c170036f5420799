package tracepipe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ktau/internal/ktau"
	"ktau/internal/ship"
)

// Wire protocol constants. Every collection round an agent ships one trace
// frame: a fixed preamble (magic, version, payload length) followed by the
// payload — the framing convention of the transport both pipelines share
// (package ship).
const (
	// TraceMagic identifies a tracepipe frame ("KTRC").
	TraceMagic = 0x4b545243
	// TraceVersion is the wire format version: varint-delta encoding
	// (timestamps as per-stream deltas, counters as uvarints) on top of the
	// per-frame name dictionary. Other versions are rejected.
	TraceVersion = 2
)

// Rec is one resolved trace record: a virtual-TSC timestamp, the event name
// (kernel instrumentation point or TAU user routine), the record kind and an
// optional atomic value. On the wire names are dictionary-encoded per frame.
type Rec struct {
	TSC  int64
	Name string
	Kind ktau.RecordKind
	Val  int64
}

// Stream is one ring buffer's drained contribution to a frame: the records
// of one task's kernel trace ring, or of one process's TAU user-level ring.
type Stream struct {
	PID    int
	Task   string
	Kernel bool
	// Lost is the ring's cumulative overwrite count at drain time — the
	// paper's "trace data may be lost if the buffer is not read fast enough".
	Lost uint64
	// Sampled is the cumulative count of records the agent's sampling policy
	// deliberately discarded from this stream. Together with Lost it keeps
	// the loss accounting exact: produced = ingested + Lost + Sampled.
	Sampled uint64
	Recs    []Rec
}

// Msg is one MPI message endpoint event used for send→recv flow
// correlation: the sender logs {Send:true, Seq:k} for its k-th message to
// (Dst,Tag), the receiver logs {Send:false, Seq:k} for its k-th receive from
// (Src,Tag). Matching (Src,Dst,Tag,Seq) tuples across nodes identify one
// message — the message lines of the paper's Fig. 2-D.
type Msg struct {
	Src, Dst int // ranks
	Tag      int
	Bytes    int
	Seq      uint64
	Send     bool
	PID      int // local endpoint's pid (binds the flow to a trace track)
	StartTSC int64
	EndTSC   int64
}

// Frame is one collection round's trace shipment from a node.
type Frame struct {
	Node    string
	NodeIdx int
	Round   int
	// Last marks the agent's final round; the sink exits after ingesting it.
	Last bool
	// Throttle is the agent's backlog-throttle level this round (0 = the
	// configured base policy was in effect).
	Throttle uint32
	// Backlog is how many records were found waiting in the node's rings at
	// drain time this round — how far behind production the agent runs.
	Backlog uint64
	// ReadErrs counts rounds-with-unreadable-rings so far (cumulative):
	// procfs trace reads that kept failing after bounded retries.
	ReadErrs uint64
	// Dropped / DroppedRecs count frames (and the records inside them) the
	// agent failed to ship so far (cumulative). They self-report shipping
	// loss: the collector learns about a dropped frame from its successor.
	Dropped     uint64
	DroppedRecs uint64
	Streams     []Stream
	Msgs        []Msg
}

// shipment is a frame as the pipeline holds it from the agent's ring reads
// to the collector's store. Its records stay in the wire's per-record
// layout (appendRec), names indexed into the frame's dictionary, every
// stream's records one after another in one buffer; nothing on the path
// holds a decoded Rec. The agent builds one as it drains its rings, each
// sink decodes every frame off the wire into one of its own, and the
// collector ingests it. The exported Frame functions convert a Frame to
// or from one.
type shipment struct {
	frameHead
	dict    dict
	streams []streamHead
	recs    []byte
	msgs    []Msg
}

// frameHead is a frame's header: every Frame field but its streams and
// messages.
type frameHead struct {
	Node        string
	NodeIdx     int
	Round       int
	Last        bool
	Throttle    uint32
	Backlog     uint64
	ReadErrs    uint64
	Dropped     uint64
	DroppedRecs uint64
}

// streamHead is one stream of a shipment: a Stream's fields but its
// records, which are the n records in the shipment's recs from where the
// previous stream's records end up to byte end.
type streamHead struct {
	pid           int
	task          string
	kernel        bool
	lost, sampled uint64
	n, end        int
}

// dict is a frame's name dictionary: the names in first-appearance order
// and, where the dictionary is built by interning, each name's index. Hot
// instrumentation points produce the same handful of names every round, so
// the dictionary is kept and reused with its shipment.
type dict struct {
	names []string
	index map[string]uint32
}

func (d *dict) intern(s string) uint32 {
	if d.index == nil {
		// A dictionary of up to 8 names is searched, and gets its map only
		// once it outgrows them. The race detector's sync.Pool drops one
		// Put in four, and this way a pooled shipment refilled for a
		// one-name frame costs 5 allocations instead of 7, which keeps
		// AppendFrame within one allocation a frame amortized there too.
		if i := slices.Index(d.names, s); i >= 0 {
			return uint32(i)
		}
		if len(d.names) < 8 {
			d.names = append(d.names, s)
			return uint32(len(d.names) - 1)
		}
		d.index = make(map[string]uint32, 2*len(d.names))
		for i, n := range d.names {
			d.index[n] = uint32(i)
		}
	}
	if i, ok := d.index[s]; ok {
		return i
	}
	i := uint32(len(d.names))
	d.names = append(d.names, s)
	d.index[s] = i
	return i
}

// reset empties s for a frame with header h, keeping its storage.
func (s *shipment) reset(h frameHead) {
	s.frameHead = h
	s.dict.names = s.dict.names[:0]
	clear(s.dict.index)
	s.streams, s.recs, s.msgs = s.streams[:0], s.recs[:0], s.msgs[:0]
}

// records counts the trace records the shipment carries.
func (s *shipment) records() int {
	n := 0
	for _, h := range s.streams {
		n += h.n
	}
	return n
}

// addStream appends a stream with header h and records recs, each name
// interned into the dictionary.
func (s *shipment) addStream(h streamHead, recs []Rec) {
	prev := int64(0)
	for _, r := range recs {
		s.recs = appendRec(s.recs, r.TSC-prev, s.dict.intern(r.Name), r.Kind, r.Val)
		prev = r.TSC
	}
	h.n, h.end = len(recs), len(s.recs)
	s.streams = append(s.streams, h)
}

// fromFrame makes s the shipment of f.
func (s *shipment) fromFrame(f *Frame) {
	s.reset(frameHead{Node: f.Node, NodeIdx: f.NodeIdx, Round: f.Round, Last: f.Last,
		Throttle: f.Throttle, Backlog: f.Backlog, ReadErrs: f.ReadErrs,
		Dropped: f.Dropped, DroppedRecs: f.DroppedRecs})
	// Size a fresh shipment in one step, as a sync.Pool refill has to: most
	// records take about 5 bytes.
	n := 0
	for _, st := range f.Streams {
		n += len(st.Recs)
	}
	s.streams, s.recs = slices.Grow(s.streams, len(f.Streams)), slices.Grow(s.recs, 8*n)
	for _, st := range f.Streams {
		s.addStream(streamHead{pid: st.PID, task: st.Task, kernel: st.Kernel,
			lost: st.Lost, sampled: st.Sampled}, st.Recs)
	}
	s.msgs = append(s.msgs, f.Msgs...)
}

// frame decodes s into *f, reusing the storage of f's Streams, of each
// stream's Recs and of its Msgs. Every field is reset; a reused frame's
// slices are emptied, not set to nil, where s has no elements.
func (s *shipment) frame(f *Frame) {
	streams, msgs := f.Streams, f.Msgs[:0]
	*f = Frame{Node: s.Node, NodeIdx: s.NodeIdx, Round: s.Round, Last: s.Last,
		Throttle: s.Throttle, Backlog: s.Backlog, ReadErrs: s.ReadErrs,
		Dropped: s.Dropped, DroppedRecs: s.DroppedRecs}
	f.Streams = slices.Grow(streams[:0], len(s.streams))[:len(s.streams)]
	start := 0
	for i, h := range s.streams {
		st := &f.Streams[i]
		st.PID, st.Task, st.Kernel, st.Lost, st.Sampled = h.pid, h.task, h.kernel, h.lost, h.sampled
		st.Recs = slices.Grow(st.Recs[:0], h.n)[:h.n]
		r := segReader{b: s.recs[start:h.end]}
		for j := range st.Recs {
			rec := &st.Recs[j]
			rec.TSC = r.nextTSC()
			var name uint32
			name, rec.Kind, rec.Val = r.rest()
			rec.Name = s.dict.names[name]
		}
		start = h.end
	}
	f.Msgs = append(msgs, s.msgs...)
}

// appendTo appends the shipment's frame payload (the bytes following the
// on-wire preamble) to dst. Record timestamps are zigzag-varint deltas
// against the previous record of the same stream, as the shipment already
// holds them, and message timestamps deltas against the previous message's
// start, so the monotone virtual-TSC sequences that dominate a frame cost
// one or two bytes each instead of eight.
func (s *shipment) appendTo(dst []byte) []byte {
	w := ship.Writer{B: dst}
	w.U32(TraceMagic)
	w.U32(TraceVersion)
	w.Str(s.Node)
	w.UV(uint64(s.NodeIdx))
	w.UV(uint64(s.Round))
	w.Bit(s.Last)
	w.UV(uint64(s.Throttle))
	w.UV(s.Backlog)
	w.UV(s.ReadErrs)
	w.UV(s.Dropped)
	w.UV(s.DroppedRecs)
	w.UV(uint64(len(s.dict.names)))
	for _, n := range s.dict.names {
		w.Str(n)
	}
	w.UV(uint64(len(s.streams)))
	start := 0
	for _, h := range s.streams {
		w.ZZ(int64(h.pid))
		w.Str(h.task)
		w.Bit(h.kernel)
		w.UV(h.lost)
		w.UV(h.sampled)
		w.UV(uint64(h.n))
		w.B = append(w.B, s.recs[start:h.end]...)
		start = h.end
	}
	w.UV(uint64(len(s.msgs)))
	prevStart := int64(0)
	for _, m := range s.msgs {
		w.UV(uint64(m.Src))
		w.UV(uint64(m.Dst))
		w.ZZ(int64(m.Tag))
		w.ZZ(int64(m.Bytes))
		w.UV(m.Seq)
		w.Bit(m.Send)
		w.ZZ(int64(m.PID))
		w.ZZ(m.StartTSC - prevStart)
		prevStart = m.StartTSC
		w.ZZ(m.EndTSC - m.StartTSC)
	}
	return w.B
}

// decode parses a frame payload into s, reusing its storage, and keeping
// each node, task and dictionary name equal to the one already in its
// slot. Damaged, truncated or foreign-version input is an error, never a
// panic: every element count is checked against the bytes left and every
// record's name index against the dictionary. Each record is re-encoded
// into s.recs as it is checked, so s aliases nothing of the payload.
func (s *shipment) decode(blob []byte) error {
	r := ship.NewReader(blob)
	if r.U32() != TraceMagic {
		return errors.New("tracepipe: bad frame magic")
	}
	if v := r.U32(); v != TraceVersion {
		if r.Err() != nil {
			return fmt.Errorf("tracepipe: %w", r.Err())
		}
		return fmt.Errorf("tracepipe: unsupported frame version %d", v)
	}
	s.Node = r.StrReuse(s.Node)
	s.NodeIdx = int(r.UV())
	s.Round = int(r.UV())
	s.Last = r.U8() == 1
	s.Throttle = uint32(r.UV())
	s.Backlog = r.UV()
	s.ReadErrs = r.UV()
	s.Dropped = r.UV()
	s.DroppedRecs = r.UV()
	clear(s.dict.index)
	nn := r.Count(r.UV())
	names := slices.Grow(s.dict.names[:0], nn)[:nn]
	for i := 0; i < nn && r.Err() == nil; i++ {
		names[i] = r.StrReuse(names[i])
	}
	s.dict.names = names
	ns := r.Count(r.UV())
	s.streams = slices.Grow(s.streams[:0], ns)[:ns]
	s.recs = s.recs[:0]
	for i := 0; i < ns && r.Err() == nil; i++ {
		h := &s.streams[i]
		h.pid = int(r.ZZ())
		h.task = r.StrReuse(h.task)
		h.kernel = r.U8() == 1
		h.lost = r.UV()
		h.sampled = r.UV()
		h.n = r.Count(r.UV())
		for j := 0; j < h.n && r.Err() == nil; j++ {
			delta := r.ZZ()
			id := r.UV()
			if id >= uint64(nn) {
				r.Fail(errNameIndex)
				break
			}
			kind := ktau.RecordKind(r.U8())
			s.recs = appendRec(s.recs, delta, uint32(id), kind, r.ZZ())
		}
		h.end = len(s.recs)
	}
	nm := r.Count(r.UV())
	s.msgs = slices.Grow(s.msgs[:0], nm)[:nm]
	prevStart := int64(0)
	for i := 0; i < nm && r.Err() == nil; i++ {
		m := &s.msgs[i]
		m.Src = int(r.UV())
		m.Dst = int(r.UV())
		m.Tag = int(r.ZZ())
		m.Bytes = int(r.ZZ())
		m.Seq = r.UV()
		m.Send = r.U8() == 1
		m.PID = int(r.ZZ())
		prevStart += r.ZZ()
		m.StartTSC = prevStart
		m.EndTSC = m.StartTSC + r.ZZ()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("tracepipe: %w", err)
	}
	return nil
}

var errNameIndex = errors.New("name index out of range")

// appendRec appends one record in the wire's per-record layout: the zigzag
// varint of its TSC's delta from the previous record's (from 0 for a
// stream's or a stored segment's first), the uvarint of its name index, its
// kind byte and the zigzag varint of its value. Shipments and frames carry
// their records this way, indexed into the frame's dictionary, and the
// collector stores them this way, indexed into its name table.
func appendRec(b []byte, delta int64, name uint32, kind ktau.RecordKind, val int64) []byte {
	b = binary.AppendVarint(b, delta)
	b = binary.AppendUvarint(b, uint64(name))
	b = append(b, byte(kind))
	return binary.AppendVarint(b, val)
}

// shipmentPool holds the shipments the exported Frame functions convert
// through, so a caller that reuses its buffers allocates nothing.
var shipmentPool = sync.Pool{New: func() any { return new(shipment) }}

// EncodeFrame serialises a frame payload (the bytes following the on-wire
// preamble). Event names are interned into a per-frame dictionary so hot
// instrumentation points cost an index per record instead of a string.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// AppendFrame serialises a frame payload, appending to dst and returning
// the extended buffer: the bytes an agent writes for the same frame.
// Callers on a hot path reuse dst's capacity across rounds; the result
// aliases dst, so retainers (queues, sinks) must copy it out.
func AppendFrame(dst []byte, f Frame) []byte {
	s := shipmentPool.Get().(*shipment)
	s.fromFrame(&f)
	dst = s.appendTo(dst)
	shipmentPool.Put(s)
	return dst
}

// DecodeFrame parses a frame payload produced by AppendFrame. Damaged,
// truncated or foreign-version input is an error, never a panic. The result
// aliases nothing.
func DecodeFrame(blob []byte) (Frame, error) {
	var f Frame
	err := DecodeFrameInto(&f, blob)
	return f, err
}

// DecodeFrameInto is DecodeFrame decoding into *f, reusing the storage of
// its Streams, of each stream's Recs and of its Msgs. Every field is reset.
// A reused frame's slices are emptied, not set to nil, where the payload
// has no elements. On an error *f is left as it was.
func DecodeFrameInto(f *Frame, blob []byte) error {
	s := shipmentPool.Get().(*shipment)
	err := s.decode(blob)
	if err == nil {
		s.frame(f)
	}
	shipmentPool.Put(s)
	return err
}
