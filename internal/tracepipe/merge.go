package tracepipe

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"ktau/internal/ktau"
	"ktau/internal/ktrace"
)

// Flow is one correlated MPI message: the sender-side and receiver-side
// endpoint events of the same (Src,Dst,Tag,Seq) tuple.
type Flow struct {
	Src, Dst   int // ranks
	Tag, Bytes int
	Seq        uint64
	// Sender / receiver endpoint placement.
	SrcNode, DstNode int
	SrcPID, DstPID   int
	// SendTSC is the sender-side completion time, RecvTSC the receiver-side
	// completion time (virtual TSC).
	SendTSC, RecvTSC int64
}

// Flows correlates the ingested MPI endpoint events into completed
// send→recv pairs, ordered by (Src, Dst, Tag, Seq). Messages whose sender
// or receiver endpoint was lost (dropped frame, ring overflow) stay
// uncorrelated and are omitted.
func (c *Collector) Flows() []Flow {
	c.mu.Lock()
	msgs := c.msgs[:len(c.msgs):len(c.msgs)]
	c.mu.Unlock()
	return correlate(msgs)
}

// msgRef places one endpoint event: segs[seg].msgs[pos].
type msgRef struct{ seg, pos uint32 }

// correlate pairs each (Src, Dst, Tag, Seq) key's send with its receive.
// When a key has several sends or several receives, the last of each in
// arrival order wins. It sorts one 8-byte reference per event by (key,
// receive before send, arrival), so each key's events are one run whose
// last receive precedes its first send and whose last event is its last
// send, and the flows come out in key order.
func correlate(segs []msgSeg) []Flow {
	n, sends := 0, 0
	for _, sg := range segs {
		n += len(sg.msgs)
		for i := range sg.msgs {
			if sg.msgs[i].Send {
				sends++
			}
		}
	}
	refs := make([]msgRef, 0, n)
	for si, sg := range segs {
		for pos := range sg.msgs {
			refs = append(refs, msgRef{seg: uint32(si), pos: uint32(pos)})
		}
	}
	at := func(r msgRef) *Msg { return &segs[r.seg].msgs[r.pos] }
	slices.SortFunc(refs, func(a, b msgRef) int {
		ma, mb := at(a), at(b)
		if c := compareKey(ma, mb); c != 0 {
			return c
		}
		if ma.Send != mb.Send {
			if mb.Send {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.seg, b.seg); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]Flow, 0, min(sends, n-sends))
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && compareKey(at(refs[i]), at(refs[j])) == 0 {
			j++
		}
		// refs[i:j] is one key's run: receives, then sends.
		last := refs[j-1]
		s := at(last)
		if s.Send && !at(refs[i]).Send {
			k := j - 1
			for at(refs[k]).Send {
				k--
			}
			recv := refs[k]
			r := at(recv)
			out = append(out, Flow{
				Src: s.Src, Dst: s.Dst, Tag: s.Tag, Bytes: s.Bytes, Seq: s.Seq,
				SrcNode: segs[last.seg].node, DstNode: segs[recv.seg].node,
				SrcPID: s.PID, DstPID: r.PID,
				SendTSC: s.EndTSC, RecvTSC: r.EndTSC,
			})
		}
		i = j
	}
	return out
}

// compareKey orders endpoint events by (Src, Dst, Tag, Seq).
func compareKey(a, b *Msg) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// exportStream is one stream as an export sees it.
type exportStream struct {
	key  streamKey
	node string
	task string
}

// exportSeg is one stored segment of streams[stream]'s records.
type exportSeg struct {
	stream int32
	seg
}

// snapshot copies what an export reads, holding mu only for the copy: every
// stream in sortedStreamKeys order, each stream's segments in arrival order,
// the name table and the message segments, each capped at its current
// length. Segments are never written once stored and Ingest only appends
// past those lengths, so after mu is released the copies stay valid and
// nothing writes what they cover.
func (c *Collector) snapshot() ([]exportStream, []exportSeg, []string, []msgSeg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.sortedStreamKeys()
	streams := make([]exportStream, len(keys))
	nsegs := 0
	for _, k := range keys {
		nsegs += len(c.streams[k].segs)
	}
	segs := make([]exportSeg, 0, nsegs)
	for i, k := range keys {
		st := c.streams[k]
		streams[i] = exportStream{key: k, node: c.nodes[k.NodeIdx].name, task: st.task}
		for _, sg := range st.segs {
			segs = append(segs, exportSeg{stream: int32(i), seg: sg})
		}
	}
	return streams, segs, c.names[:len(c.names):len(c.names)], c.msgs[:len(c.msgs):len(c.msgs)]
}

// recRef places one record in a run: its TSC, and its slot in the run's
// reference buffer at placement, where the run's payload buffer holds the
// rest of it.
type recRef struct {
	tsc  int64
	slot int32
}

// recPayload is a placed record's fields besides its TSC, decoded once at
// placement so the writer never goes back to the stored bytes.
type recPayload struct {
	val    int64
	name   uint32
	stream int32
	kind   ktau.RecordKind
}

// mergeRunRefs is how many references an export places and sorts at once,
// unless a single TSC bucket holds more.
const mergeRunRefs = 64 << 10

// merge hands out the references of an export snapshot's records in merged
// timeline order, one run of consecutive TSC buckets at a time, all of them
// placed in one reused buffer beside one reused payload buffer.
type merge struct {
	segs  []exportSeg
	n     int32 // records in the snapshot
	lo    int64 // the least TSC; bucket b holds lo + [b<<shift, (b+1)<<shift)
	shift uint
	// next[b] is where bucket b starts in the merged order until bucket b
	// is placed, and then where it ends.
	next []int32
	b    int // the first bucket not yet handed out
	buf  []recRef
	// payload[slot] is the rest of the record whose reference was placed at
	// buf[slot]; sorting moves the references, not the payloads.
	payload []recPayload
}

// mergeOrder prepares the merged timeline order of the snapshot's records:
// by TSC, ties broken by segment and then by position in the segment.
// Segments are numbered by stream (node index, then pid, user before
// kernel) and then by arrival, so (segment, position) is each record's place
// in its stream's records concatenated in stream order. That is a total
// order, so the result is the stable sort by TSC of the streams concatenated
// in order, whether or not each stream is TSC-ordered; it is byte-identical
// however many workers drove the simulation and in whatever order frames
// arrived.
//
// Kernel streams arrive unsorted (records land behind later-stamped ones of
// their own stream), so the order is placed rather than merged: the TSC
// range of every segment, stored at ingest, gives the range of them all, and
// a counting pass, decoding only TSCs, sizes power-of-two-wide TSC buckets,
// about one per four records. Each run then takes the next consecutive
// buckets that fit in runRefs references (or the one next bucket, when it
// alone holds more), and its placement pass decodes the segments whose TSC
// range meets the run's and writes each reference whose TSC falls in the
// run into its bucket in (segment, position) order. A reference's slot is
// where it was placed, so within a bucket slot order is (segment, position)
// order. Buckets partition the TSC range in order, so only each bucket's few
// references are left to sort by (TSC, slot); a bucket that takes every
// record is the one comparison sort of them all.
func mergeOrder(segs []exportSeg, runRefs int) (merge, error) {
	n := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range segs {
		s := &segs[i]
		n += s.n
		lo, hi = min(lo, s.lo), max(hi, s.hi)
	}
	if len(segs) > math.MaxInt32 || n > math.MaxInt32 {
		return merge{}, fmt.Errorf("tracepipe: %d records in %d segments exceed the export's int32 references", n, len(segs))
	}
	m := merge{segs: segs, n: int32(n)}
	if n == 0 {
		return m, nil
	}
	m.lo = lo

	// Offsets from lo are taken unsigned: two int64 TSCs can be up to 2^64-1
	// apart.
	span, want := uint64(hi)-uint64(lo), uint64(max(1, n/4))
	for span>>m.shift >= want {
		m.shift++
	}
	m.next = make([]int32, span>>m.shift+1)
	for _, s := range segs {
		r := segReader{b: s.recs}
		for range s.n {
			m.next[m.bucket(r.nextTSC())]++
			r.skipRest()
		}
	}
	start, largest := int32(0), int32(0)
	for b, count := range m.next {
		m.next[b] = start
		start += count
		largest = max(largest, count)
	}
	size := min(n, max(runRefs, int(largest)))
	m.buf, m.payload = make([]recRef, size), make([]recPayload, size)
	return m, nil
}

// bucket returns the bucket of a TSC in the snapshot's range.
func (m *merge) bucket(tsc int64) uint64 { return (uint64(tsc) - uint64(m.lo)) >> m.shift }

// end returns where bucket b ends in the merged order, before it is placed.
func (m *merge) end(b int) int32 {
	if b+1 < len(m.next) {
		return m.next[b+1]
	}
	return m.n
}

// run places and sorts the next run of buckets and returns its references,
// which stay valid until the next call; it returns nil once every record
// has been handed out.
func (m *merge) run() []recRef {
	b0 := m.b
	if b0 == len(m.next) {
		return nil
	}
	first := m.next[b0]
	b1 := b0 + 1
	for b1 < len(m.next) && m.end(b1)-first <= int32(len(m.buf)) {
		b1++
	}
	refs := m.buf[:m.end(b1-1)-first]
	lo, hi := uint64(b0), uint64(b1)
	for si := range m.segs {
		s := &m.segs[si]
		if m.bucket(s.hi) < lo || m.bucket(s.lo) >= hi {
			continue
		}
		r := segReader{b: s.recs}
		for range s.n {
			tsc := r.nextTSC()
			b := m.bucket(tsc)
			if b < lo || b >= hi {
				r.skipRest()
				continue
			}
			slot := m.next[b] - first
			m.next[b]++
			refs[slot] = recRef{tsc: tsc, slot: slot}
			p := &m.payload[slot]
			p.name, p.kind, p.val = r.rest()
			p.stream = s.stream
		}
	}
	start := int32(0)
	for _, end := range m.next[b0:b1] {
		end -= first
		if end-start > 1 {
			slices.SortFunc(refs[start:end], compareRefs)
		}
		start = end
	}
	m.b = b1
	return refs
}

// compareRefs orders one bucket's references by (TSC, slot), which is
// (TSC, segment, position).
func compareRefs(a, b recRef) int {
	if c := cmp.Compare(a.tsc, b.tsc); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// trackID maps one ring's stream onto a Chrome thread track: each task gets
// a user track (pid*2) and a kernel track (pid*2+1), grouped under its
// node's process.
func trackID(pid int, kernel bool) int {
	t := pid * 2
	if kernel {
		t++
	}
	return t
}

// WriteChromeTrace renders the merged cluster timeline as one Chrome
// trace-event JSON array, loadable in Perfetto or chrome://tracing: one
// process per node, one pair of tracks (user + kernel) per task, and flow
// arrows for every correlated MPI message. Output is deterministic and
// byte-identical across serial and parallel runs of the same seed. The
// collector's lock is held only to snapshot what has been ingested, never
// while writing to w, so ingest carries on during an export.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return c.writeChromeTrace(w, mergeRunRefs)
}

// writeChromeTrace is WriteChromeTrace placing at most runRefs references
// at once, or a whole bucket when one holds more.
func (c *Collector) writeChromeTrace(w io.Writer, runRefs int) error {
	streams, segs, names, msgs := c.snapshot()
	flows := correlate(msgs)
	m, err := mergeOrder(segs, runRefs)
	if err != nil {
		return err
	}

	base, haveBase := m.lo, m.n > 0
	for _, f := range flows {
		if !haveBase || f.SendTSC < base {
			base, haveBase = f.SendTSC, true
		}
	}
	hz := c.hz
	if hz <= 0 {
		hz = 1
	}
	toUS := func(tsc int64) float64 { return float64(tsc-base) / float64(hz) * 1e6 }

	cw := ktrace.NewChromeWriter(w)
	var arg [1]ktrace.ChromeArg

	// Metadata: name each node's process and each stream's track.
	for i, s := range streams {
		node := s.key.NodeIdx
		if i == 0 || node != streams[i-1].key.NodeIdx {
			arg[0] = ktrace.ChromeArg{Key: "name", Str: s.node, IsStr: true}
			cw.Event(&ktrace.ChromeEvent{Name: "process_name", Phase: "M", PID: node, Args: arg[:]})
			arg[0] = ktrace.ChromeArg{Key: "sort_index", Int: int64(node)}
			cw.Event(&ktrace.ChromeEvent{Name: "process_sort_index", Phase: "M", PID: node, Args: arg[:]})
		}
		label := s.task
		if s.key.Kernel {
			label += " (kernel)"
		}
		arg[0] = ktrace.ChromeArg{Key: "name", Str: label, IsStr: true}
		cw.Event(&ktrace.ChromeEvent{
			Name: "thread_name", Phase: "M", PID: node, TID: trackID(s.key.PID, s.key.Kernel), Args: arg[:],
		})
	}

	for refs := m.run(); refs != nil; refs = m.run() {
		for _, ref := range refs {
			r := &m.payload[ref.slot]
			s := &streams[r.stream]
			ev := ktrace.ChromeEvent{
				Name: names[r.name], Cat: "user", TS: toUS(ref.tsc),
				PID: s.key.NodeIdx, TID: trackID(s.key.PID, s.key.Kernel),
			}
			if s.key.Kernel {
				ev.Cat = "kernel"
			}
			switch r.kind {
			case ktau.KindEntry:
				ev.Phase = "B"
			case ktau.KindExit:
				ev.Phase = "E"
			case ktau.KindAtomic:
				ev.Phase = "i"
				arg[0] = ktrace.ChromeArg{Key: "value", Int: r.val}
				ev.Args = arg[:]
			default:
				continue
			}
			cw.Event(&ev)
		}
	}

	for i, f := range flows {
		args := [...]ktrace.ChromeArg{
			{Key: "src", Int: int64(f.Src)}, {Key: "dst", Int: int64(f.Dst)},
			{Key: "tag", Int: int64(f.Tag)}, {Key: "bytes", Int: int64(f.Bytes)},
		}
		cw.Event(&ktrace.ChromeEvent{
			Name: "MPI_msg", Cat: "mpi", Phase: "s", TS: toUS(f.SendTSC),
			PID: f.SrcNode, TID: trackID(f.SrcPID, false), ID: i + 1, Args: args[:],
		})
		cw.Event(&ktrace.ChromeEvent{
			Name: "MPI_msg", Cat: "mpi", Phase: "f", BindPt: "e", TS: toUS(f.RecvTSC),
			PID: f.DstNode, TID: trackID(f.DstPID, false), ID: i + 1,
		})
	}

	return cw.Close()
}
