package tracepipe

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

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

func correlate(msgs []nodeMsg) []Flow {
	type key struct {
		src, dst, tag int
		seq           uint64
	}
	sends := make(map[key]nodeMsg, len(msgs)/2)
	recvs := make(map[key]nodeMsg, len(msgs)/2)
	for _, nm := range msgs {
		k := key{src: nm.m.Src, dst: nm.m.Dst, tag: nm.m.Tag, seq: nm.m.Seq}
		if nm.m.Send {
			sends[k] = nm
		} else {
			recvs[k] = nm
		}
	}
	out := make([]Flow, 0, len(sends))
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			continue
		}
		out = append(out, Flow{
			Src: k.src, Dst: k.dst, Tag: k.tag, Bytes: s.m.Bytes, Seq: k.seq,
			SrcNode: s.nodeIdx, DstNode: r.nodeIdx,
			SrcPID: s.m.PID, DstPID: r.m.PID,
			SendTSC: s.m.EndTSC, RecvTSC: r.m.EndTSC,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.Seq < b.Seq
	})
	return out
}

// exportStream is one stream as an export sees it.
type exportStream struct {
	key  streamKey
	node string
	task string
}

// exportSeg is one ingested segment of streams[stream]'s records.
type exportSeg struct {
	stream int
	recs   []Rec
}

// snapshot copies what an export reads, holding mu only for the copy: every
// stream in sortedStreamKeys order, each stream's segments in arrival order,
// and the message log capped at its current length. Segments are never
// written once stored and Ingest only appends past those lengths, so after
// mu is released the copies stay valid and nothing writes what they cover.
func (c *Collector) snapshot() ([]exportStream, []exportSeg, []nodeMsg) {
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
		for _, seg := range st.segs {
			segs = append(segs, exportSeg{stream: i, recs: seg})
		}
	}
	return streams, segs, c.msgs[:len(c.msgs):len(c.msgs)]
}

// recRef places one record of an export snapshot: segs[seg].recs[pos].
type recRef struct {
	tsc      int64
	seg, pos int32
}

// mergeOrder returns a reference to every record of the snapshot in merged
// timeline order: by TSC, ties broken by segment and then by position in the
// segment. Segments are numbered by stream (node index, then pid, user
// before kernel) and then by arrival, so (segment, position) is each
// record's place in its stream's records concatenated in stream order.
// That is a total order, so the result is the stable sort by TSC of the
// streams concatenated in order, whatever the sort algorithm and whether or
// not each stream is TSC-ordered; it is byte-identical however many workers
// drove the simulation and in whatever order frames arrived.
func mergeOrder(segs []exportSeg) ([]recRef, error) {
	n := 0
	for _, s := range segs {
		n += len(s.recs)
	}
	if len(segs) > math.MaxInt32 || n > math.MaxInt32 {
		return nil, fmt.Errorf("tracepipe: %d records in %d segments exceed the export's int32 references", n, len(segs))
	}
	refs := make([]recRef, 0, n)
	for si, s := range segs {
		for pos := range s.recs {
			refs = append(refs, recRef{tsc: s.recs[pos].TSC, seg: int32(si), pos: int32(pos)})
		}
	}
	slices.SortFunc(refs, func(a, b recRef) int {
		if c := cmp.Compare(a.tsc, b.tsc); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seg, b.seg); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return refs, nil
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
	streams, segs, msgs := c.snapshot()
	flows := correlate(msgs)
	refs, err := mergeOrder(segs)
	if err != nil {
		return err
	}

	var base int64
	haveBase := len(refs) > 0
	if haveBase {
		base = refs[0].tsc
	}
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

	for _, ref := range refs {
		sg := &segs[ref.seg]
		s := &streams[sg.stream]
		r := &sg.recs[ref.pos]
		ev := ktrace.ChromeEvent{
			Name: r.Name, Cat: "user", TS: toUS(r.TSC),
			PID: s.key.NodeIdx, TID: trackID(s.key.PID, s.key.Kernel),
		}
		if s.key.Kernel {
			ev.Cat = "kernel"
		}
		switch r.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			arg[0] = ktrace.ChromeArg{Key: "value", Int: r.Val}
			ev.Args = arg[:]
		default:
			continue
		}
		cw.Event(&ev)
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
