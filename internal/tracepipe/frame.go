package tracepipe

import (
	"errors"
	"fmt"
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
	// TraceHeaderBytes is the transport's fixed on-wire preamble preceding
	// each frame's payload.
	TraceHeaderBytes = ship.HeaderBytes
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

// records counts the trace records carried by the frame.
func (f Frame) records() int {
	n := 0
	for _, s := range f.Streams {
		n += len(s.Recs)
	}
	return n
}

// dict is the reusable per-frame name-interning state. Hot instrumentation
// points produce the same handful of names every round, so the dictionary's
// map buckets and name slice are pooled rather than rebuilt per frame.
type dict struct {
	names []string
	index map[string]uint32
}

func (d *dict) intern(s string) uint32 {
	if i, ok := d.index[s]; ok {
		return i
	}
	i := uint32(len(d.names))
	d.names = append(d.names, s)
	d.index[s] = i
	return i
}

func (d *dict) reset() {
	d.names = d.names[:0]
	clear(d.index)
}

var dictPool = sync.Pool{New: func() any {
	return &dict{names: make([]string, 0, 16), index: make(map[string]uint32, 16)}
}}

// EncodeFrame serialises a frame payload (the bytes following the on-wire
// preamble). Event names are interned into a per-frame dictionary so hot
// instrumentation points cost an index per record instead of a string.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// AppendFrame serialises a frame payload, appending to dst and returning
// the extended buffer. Record timestamps are zigzag-varint deltas against
// the previous record of the same stream and message timestamps deltas
// against the previous message's start, so the monotone virtual-TSC
// sequences that dominate a frame cost one or two bytes each instead of
// eight. Callers on a hot path reuse dst's capacity across rounds; the
// result aliases dst, so retainers (queues, sinks) must copy it out.
func AppendFrame(dst []byte, f Frame) []byte {
	// Build the name dictionary in first-appearance order (deterministic:
	// streams and records are already deterministically ordered).
	d := dictPool.Get().(*dict)
	for _, s := range f.Streams {
		for _, r := range s.Recs {
			d.intern(r.Name)
		}
	}

	w := ship.Writer{B: dst}
	w.U32(TraceMagic)
	w.U32(TraceVersion)
	w.Str(f.Node)
	w.UV(uint64(f.NodeIdx))
	w.UV(uint64(f.Round))
	w.Bit(f.Last)
	w.UV(uint64(f.Throttle))
	w.UV(f.Backlog)
	w.UV(f.ReadErrs)
	w.UV(f.Dropped)
	w.UV(f.DroppedRecs)
	w.UV(uint64(len(d.names)))
	for _, n := range d.names {
		w.Str(n)
	}
	w.UV(uint64(len(f.Streams)))
	for _, s := range f.Streams {
		w.ZZ(int64(s.PID))
		w.Str(s.Task)
		w.Bit(s.Kernel)
		w.UV(s.Lost)
		w.UV(s.Sampled)
		w.UV(uint64(len(s.Recs)))
		prev := int64(0)
		for _, r := range s.Recs {
			w.ZZ(r.TSC - prev)
			prev = r.TSC
			w.UV(uint64(d.index[r.Name]))
			w.U8(uint8(r.Kind))
			w.ZZ(r.Val)
		}
	}
	w.UV(uint64(len(f.Msgs)))
	prevStart := int64(0)
	for _, m := range f.Msgs {
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
	d.reset()
	dictPool.Put(d)
	return w.B
}

// DecodeFrame parses a frame payload produced by AppendFrame. Damaged,
// truncated or foreign-version input is an error, never a panic.
func DecodeFrame(blob []byte) (Frame, error) {
	r := ship.NewReader(blob)
	var f Frame
	if r.U32() != TraceMagic {
		return f, errors.New("tracepipe: bad frame magic")
	}
	if v := r.U32(); v != TraceVersion {
		if r.Err() != nil {
			return f, fmt.Errorf("tracepipe: %w", r.Err())
		}
		return f, fmt.Errorf("tracepipe: unsupported frame version %d", v)
	}
	f.Node = r.Str()
	f.NodeIdx = int(r.UV())
	f.Round = int(r.UV())
	f.Last = r.U8() == 1
	f.Throttle = uint32(r.UV())
	f.Backlog = r.UV()
	f.ReadErrs = r.UV()
	f.Dropped = r.UV()
	f.DroppedRecs = r.UV()
	nn := r.Count(r.UV())
	names := make([]string, 0, nn)
	for i := 0; i < nn && r.Err() == nil; i++ {
		names = append(names, r.Str())
	}
	nameAt := func(i uint64) string {
		if i >= uint64(len(names)) {
			r.Fail(errNameIndex)
			return ""
		}
		return names[i]
	}
	ns := r.Count(r.UV())
	if ns > 0 {
		f.Streams = make([]Stream, 0, ns)
	}
	for i := 0; i < ns && r.Err() == nil; i++ {
		var s Stream
		s.PID = int(r.ZZ())
		s.Task = r.Str()
		s.Kernel = r.U8() == 1
		s.Lost = r.UV()
		s.Sampled = r.UV()
		if nr := r.Count(r.UV()); nr > 0 {
			s.Recs = make([]Rec, nr)
		}
		prev := int64(0)
		for j := 0; j < len(s.Recs) && r.Err() == nil; j++ {
			rec := &s.Recs[j]
			prev += r.ZZ()
			rec.TSC = prev
			rec.Name = nameAt(r.UV())
			rec.Kind = ktau.RecordKind(r.U8())
			rec.Val = r.ZZ()
		}
		f.Streams = append(f.Streams, s)
	}
	nm := r.Count(r.UV())
	if nm > 0 {
		f.Msgs = make([]Msg, 0, nm)
	}
	prevStart := int64(0)
	for i := 0; i < nm && r.Err() == nil; i++ {
		var m Msg
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
		f.Msgs = append(f.Msgs, m)
	}
	if err := r.Err(); err != nil {
		return f, fmt.Errorf("tracepipe: %w", err)
	}
	return f, nil
}

var errNameIndex = errors.New("name index out of range")
