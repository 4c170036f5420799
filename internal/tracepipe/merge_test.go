package tracepipe

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"ktau/internal/ktau"
)

// chromeRecord is the part of an exported record event the merge decides.
type chromeRecord struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
}

// exportedRecords parses a Chrome trace and keeps the record events, in
// output order.
func exportedRecords(t *testing.T, trace []byte) []chromeRecord {
	t.Helper()
	var events []chromeRecord
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var out []chromeRecord
	for _, e := range events {
		if e.Cat == "user" || e.Cat == "kernel" {
			out = append(out, e)
		}
	}
	return out
}

// stored decodes a stored segment into the Recs it was ingested from.
func (c *Collector) stored(sg seg) []Rec {
	out := make([]Rec, sg.n)
	r := segReader{b: sg.recs}
	for i := range out {
		out[i].TSC = r.nextTSC()
		var name uint32
		name, out[i].Kind, out[i].Val = r.rest()
		out[i].Name = c.names[name]
	}
	return out
}

// refMergedEvent and refMerged are the reference merge: the export used to
// concatenate every stream's records (its segments in arrival order) in
// sortedStreamKeys order and stable-sort the whole slice by TSC.
type refMergedEvent struct {
	key streamKey
	rec Rec
}

func refMerged(c *Collector) []refMergedEvent {
	var out []refMergedEvent
	for _, key := range c.sortedStreamKeys() {
		for _, sg := range c.streams[key].segs {
			for _, r := range c.stored(sg) {
				out = append(out, refMergedEvent{key: key, rec: r})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].rec.TSC < out[j].rec.TSC })
	return out
}

// mergeRunSizes are the reference-buffer sizes the merge-order checks
// export at besides mergeRunRefs: runs of one, two, three and seven
// references put run edges inside TSC ties, inside unordered streams and
// next to buckets larger than the buffer.
var mergeRunSizes = []int{1, 2, 3, 7}

// checkMergeOrder exports the collector and requires its record events to
// be the reference merge's, in the reference's order, and the export at
// every size in mergeRunSizes to be byte-identical to it. It also walks the
// merge at each size with checkMergeRuns.
func checkMergeOrder(t *testing.T, c *Collector) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, size := range mergeRunSizes {
		var small bytes.Buffer
		if err := c.writeChromeTrace(&small, size); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(small.Bytes(), buf.Bytes()) {
			t.Fatalf("export placing %d references at a time differs from the export placing %d", size, mergeRunRefs)
		}
	}
	for _, size := range append([]int{mergeRunRefs}, mergeRunSizes...) {
		checkMergeRuns(t, c, size)
	}
	got := exportedRecords(t, buf.Bytes())

	ref := refMerged(c)
	var want []chromeRecord
	for _, e := range ref {
		phase := map[ktau.RecordKind]string{ktau.KindEntry: "B", ktau.KindExit: "E", ktau.KindAtomic: "i"}[e.rec.Kind]
		if phase == "" {
			continue
		}
		cat := "user"
		if e.key.Kernel {
			cat = "kernel"
		}
		want = append(want, chromeRecord{
			Name: e.rec.Name, Cat: cat, Phase: phase,
			TS:  float64(e.rec.TSC-ref[0].rec.TSC) / float64(c.hz) * 1e6,
			PID: e.key.NodeIdx, TID: trackID(e.key.PID, e.key.Kernel),
		})
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d record events, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// checkMergeRuns walks the merge of c's snapshot placing size references
// at a time: its buffer must hold no more than the larger of size and the
// largest bucket, and its runs must hand out as many references as there
// are records (checkMergeOrder's export comparison checks which, and in
// what order).
func checkMergeRuns(t *testing.T, c *Collector, size int) {
	t.Helper()
	_, segs, _, _ := c.snapshot()
	m, err := mergeOrder(segs, size)
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for b := range m.next {
		largest = max(largest, int(m.end(b)-m.next[b]))
	}
	if limit := max(size, largest); cap(m.buf) > limit || len(m.payload) != len(m.buf) {
		t.Fatalf("size %d: reference buffer holds %d references and payload buffer %d, want at most %d each",
			size, cap(m.buf), len(m.payload), limit)
	}
	handed := 0
	for refs := m.run(); refs != nil; refs = m.run() {
		handed += len(refs)
	}
	if handed != int(m.n) {
		t.Fatalf("size %d: runs handed out %d references, want %d", size, handed, m.n)
	}
}

// TestMergeOrderMatchesStableSort pins the export's record order to the
// reference merge: on TSC ties across nodes, pids and the user/kernel
// layers, on records split over several frames arriving out of node order,
// on streams whose records are not in TSC order, on the extreme int64 TSCs,
// and on a reversed burst in a narrow TSC range beside one far outlier,
// which puts almost every record in one bucket.
func TestMergeOrderMatchesStableSort(t *testing.T) {
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindAtomic, ktau.KindExit, 0}
	seq := 0 // names every record uniquely, so the order check is exact
	stream := func(node, pid int, kernel bool, tscs ...int64) Stream {
		s := Stream{PID: pid, Task: fmt.Sprintf("task%d", pid), Kernel: kernel}
		for i, tsc := range tscs {
			seq++
			s.Recs = append(s.Recs, Rec{
				TSC: tsc, Kind: kinds[i%len(kinds)], Val: int64(-i),
				Name: fmt.Sprintf("n%d/p%d/k%v/#%d", node, pid, kernel, seq),
			})
		}
		return s
	}
	burst := make([]int64, 300)
	for i := range burst {
		burst[i] = int64(1000 - i/3) // descending, three records per TSC
	}
	cases := []struct {
		name   string
		frames []Frame
	}{
		{"ties, splits and unordered streams", []Frame{
			{NodeIdx: 2, Streams: []Stream{
				stream(2, 4, true, 300, 100, 200, 100, 50), // not TSC-ordered
				stream(2, 4, false, 100, 100),
			}},
			{NodeIdx: 0, Streams: []Stream{
				stream(0, 7, true, 100, 150),
				stream(0, 7, false, 100, 200),
				stream(0, 3, false, 100, 100, 250),
			}},
			{NodeIdx: 1, Streams: []Stream{
				stream(1, 1, true, 100, 200, 300),
			}},
			{NodeIdx: 0, Streams: []Stream{
				stream(0, 7, true, 90, 100), // a later frame of the same stream
				stream(0, 3, true, 100),
			}},
		}},
		{"all TSCs equal", []Frame{
			{NodeIdx: 1, Streams: []Stream{stream(1, 2, true, 5, 5, 5), stream(1, 2, false, 5, 5)}},
			{NodeIdx: 0, Streams: []Stream{stream(0, 9, false, 5, 5), stream(0, 1, true, 5)}},
			{NodeIdx: 1, Streams: []Stream{stream(1, 2, true, 5, 5), stream(1, 1, false, 5, 5, 5, 5)}},
		}},
		{"extreme TSCs", []Frame{
			{NodeIdx: 0, Streams: []Stream{
				stream(0, 1, false, math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64),
				stream(0, 1, true, math.MinInt64, math.MinInt64+1, math.MaxInt64-1, math.MaxInt64),
			}},
			{NodeIdx: 1, Streams: []Stream{stream(1, 1, false, math.MaxInt64, 1, math.MinInt64)}},
		}},
		{"reversed burst beside a far outlier", []Frame{
			{NodeIdx: 0, Streams: []Stream{stream(0, 1, true, burst[:150]...), stream(0, 1, false, 1<<40)}},
			{NodeIdx: 1, Streams: []Stream{stream(1, 1, true, burst[150:]...)}},
			{NodeIdx: 0, Streams: []Stream{stream(0, 1, true, burst...)}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(3, 1_000_000)
			for _, f := range tc.frames {
				c.Ingest(f, 0)
			}
			checkMergeOrder(t, c)
		})
	}
}

// fuzzFrames turns fuzzer bytes into one single-stream frame per chunk. A
// chunk's first byte picks the stream (one of three nodes, two pids and
// both layers) and the segment's length, 1 to 16 records; each following
// byte stamps one record: with the previous record's TSC, whatever its
// stream (ties across nodes, pids and layers); a small signed step from it
// (narrow and reversed runs); the next eight bytes as an int64; or
// MinInt64 or MaxInt64.
func fuzzFrames(data []byte) []Frame {
	var frames []Frame
	var tsc int64
	seq := 0
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindAtomic, ktau.KindExit}
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		s, n := int(h%12), 1+int(h/12)%16
		node := s / 4
		st := Stream{PID: 1 + s/2%2, Task: "t", Kernel: s%2 == 1}
		for ; n > 0 && len(data) > 0; n-- {
			op := data[0]
			data = data[1:]
			switch op % 4 {
			case 1:
				tsc += int64(int8(op)) >> 2
			case 2:
				var raw [8]byte
				data = data[copy(raw[:], data):]
				tsc = int64(binary.BigEndian.Uint64(raw[:]))
			case 3:
				tsc = math.MaxInt64
				if op&4 != 0 {
					tsc = math.MinInt64
				}
			}
			seq++
			st.Recs = append(st.Recs, Rec{TSC: tsc, Name: fmt.Sprintf("#%d", seq), Kind: kinds[seq%len(kinds)]})
		}
		frames = append(frames, Frame{NodeIdx: node, Streams: []Stream{st}})
	}
	return frames
}

// FuzzMergeOrder requires the export's record order to equal the reference
// merge's on any frames fuzzFrames builds.
func FuzzMergeOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	ties := []byte{}
	for s := byte(0); s < 12; s++ {
		ties = append(ties, 12*3+s, 0, 0, 0, 0) // four records at TSC 0 on every stream
	}
	f.Add(ties)
	// MaxInt64, MinInt64 and a tie with it, MaxInt64, MinInt64, MinInt64+1;
	// then on another node MinInt64, MaxInt64, MaxInt64-1.
	extremes := []byte{12*7 + 3, 3, 7, 0, 3, 7, 2, 0x80, 0, 0, 0, 0, 0, 0, 1}
	f.Add(append(extremes, 12*2+6, 7, 3, 2, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe))
	// One record at 2^36, then 207 records stepping down from 4096 across
	// every stream: almost all of them share the lowest bucket.
	burst := []byte{12*15 + 1, 2, 0, 0, 0, 0x10, 0, 0, 0, 0}
	burst = append(burst, 2, 0, 0, 0, 0, 0, 0, 0x10, 0)
	for i := 0; i < 14; i++ {
		burst = append(burst, 0xfd) // step -1
	}
	for s := byte(0); s < 12; s++ {
		burst = append(burst, 12*15+s)
		for i := 0; i < 16; i++ {
			burst = append(burst, 0xfd)
		}
	}
	f.Add(burst)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCollector(3, 1_000_000)
		for _, fr := range fuzzFrames(data) {
			c.Ingest(fr, 0)
		}
		checkMergeOrder(t, c)
	})
}

// totalsWriter calls back into the collector on every write, as a writer
// that reports progress might; it deadlocks if the export holds the
// collector's lock while writing.
type totalsWriter struct {
	c      *Collector
	buf    bytes.Buffer
	writes int
}

func (w *totalsWriter) Write(p []byte) (int, error) {
	w.c.Totals()
	w.writes++
	return w.buf.Write(p)
}

// TestWriteChromeTraceWhileIngesting exports while another goroutine keeps
// ingesting, with a writer that takes the collector's lock: the export
// must neither deadlock nor race (check.sh runs tracepipe under -race), and
// must hold at least every record ingested before it started.
func TestWriteChromeTraceWhileIngesting(t *testing.T) {
	c := NewCollector(4, 1_000_000)
	frame := func(round int) Frame {
		node := round % 4
		f := Frame{NodeIdx: node, Round: round}
		for pid := 1; pid <= 3; pid++ {
			s := Stream{PID: pid, Task: "lu.A", Kernel: round%2 == 0}
			for i := 0; i < 100; i++ {
				s.Recs = append(s.Recs, Rec{TSC: int64(round*1000 + i), Name: "sys_read", Kind: ktau.KindEntry})
			}
			f.Streams = append(f.Streams, s)
		}
		f.Msgs = []Msg{
			{Src: node, Dst: (node + 1) % 4, Seq: uint64(round), Send: true, PID: 1, EndTSC: int64(round * 1000)},
			{Src: (node + 3) % 4, Dst: node, Seq: uint64(round - 1), PID: 2, EndTSC: int64(round * 1000)},
		}
		return f
	}
	const before = 40
	for r := 0; r < before; r++ {
		c.Ingest(frame(r), 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := before; r < 10*before; r++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Ingest(frame(r), 0)
		}
	}()
	w := &totalsWriter{c: c}
	err := c.WriteChromeTrace(w)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Fatalf("export made %d writes, want several chunks", w.writes)
	}
	if n := len(exportedRecords(t, w.buf.Bytes())); n < before*300 {
		t.Fatalf("exported %d records, want at least the %d ingested before the export", n, before*300)
	}
}

// TestLoopbackIngestCopiesAgentBuffer: a loopback frame (wireBytes 0) is
// the agent's round shipment, whose record bytes and dictionary the agent
// overwrites in place the next round. Ingest must copy those records out:
// overwriting every byte of the shipment's record buffer and every
// dictionary slot after the ingest leaves the Chrome export unchanged.
func TestLoopbackIngestCopiesAgentBuffer(t *testing.T) {
	c := NewCollector(1, 1_000_000)
	var recs []Rec
	for i := 0; i < 6; i++ {
		recs = append(recs, Rec{TSC: int64(100 + i), Name: fmt.Sprintf("ev%d", i), Kind: ktau.KindAtomic, Val: int64(i)})
	}
	var s shipment // the agent's round shipment
	s.fromFrame(&Frame{NodeIdx: 0, Streams: []Stream{
		{PID: 1, Task: "a", Kernel: true, Recs: recs[0:4]},
		{PID: 2, Task: "b", Kernel: true, Recs: recs[4:6]},
	}})
	c.ingest(&s, 0)
	var before bytes.Buffer
	if err := c.WriteChromeTrace(&before); err != nil {
		t.Fatal(err)
	}

	buf := s.recs[:cap(s.recs)] // the next round reuses the shipment
	for i := range buf {
		buf[i] = 0xff
	}
	for i := range s.dict.names {
		s.dict.names[i] = "over"
	}
	var after bytes.Buffer
	if err := c.WriteChromeTrace(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("overwriting the agent's shipment changed the export:\nbefore %s\nafter  %s", before.Bytes(), after.Bytes())
	}
	if n := len(exportedRecords(t, after.Bytes())); n != 6 {
		t.Fatalf("export holds %d records, want 6", n)
	}
}

// exportShapedCollector builds a collector shaped like a live-traced Chiba
// LU run's: a user and a kernel stream per task, each shipped
// round by round in segments of 64 to 127 records, 25 record names, about
// 40% of records sharing the TSC of their stream's previous record, and
// about 13% of records late: stamped just before a record up to 200
// positions earlier in their stream. Each node also logs one matched MPI
// send and receive per round.
func exportShapedCollector(nodes, tasks, recsPerStream int) *Collector {
	rng := rand.New(rand.NewSource(1))
	names := make([]string, 25)
	for i := range names {
		names[i] = fmt.Sprintf("sys_call_%02d", i)
	}
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindExit, ktau.KindAtomic}
	type stream struct {
		pid    int
		kernel bool
		recs   []Rec
	}
	streams := make([][]stream, nodes)
	for node := range streams {
		for pid := 1; pid <= tasks; pid++ {
			for _, kernel := range []bool{false, true} {
				recs := make([]Rec, recsPerStream)
				tsc := int64(rng.Intn(1000))
				for i := range recs {
					if rng.Intn(10) >= 4 {
						tsc += 1 + int64(rng.Intn(2000))
					}
					recs[i] = Rec{TSC: tsc, Name: names[rng.Intn(len(names))], Kind: kinds[rng.Intn(len(kinds))], Val: int64(i)}
					if i > 0 && rng.Intn(100) < 13 {
						recs[i].TSC = recs[i-1-rng.Intn(min(i, 200))].TSC - 1
					}
				}
				streams[node] = append(streams[node], stream{pid: pid, kernel: kernel, recs: recs})
			}
		}
	}
	c := NewCollector(nodes, 450_000_000)
	for round := 0; ; round++ {
		shipped := false
		for node := range streams {
			f := Frame{NodeIdx: node, Round: round}
			for i := range streams[node] {
				s := &streams[node][i]
				n := min(len(s.recs), 64+rng.Intn(64))
				if n == 0 {
					continue
				}
				f.Streams = append(f.Streams, Stream{PID: s.pid, Task: "lu.A", Kernel: s.kernel, Recs: s.recs[:n:n]})
				s.recs = s.recs[n:]
			}
			if len(f.Streams) == 0 {
				continue
			}
			shipped = true
			peer := (node + 1) % nodes
			f.Msgs = []Msg{
				{Src: node, Dst: peer, Seq: uint64(round), Send: true, PID: 1, EndTSC: f.Streams[0].Recs[0].TSC},
				{Src: (node + nodes - 1) % nodes, Dst: node, Seq: uint64(round), PID: 1, EndTSC: f.Streams[0].Recs[0].TSC + 1},
			}
			c.Ingest(f, 1)
		}
		if !shipped {
			return c
		}
	}
}

// BenchmarkWriteChromeTrace prices the export layer alone: one Chrome
// export of a 32-node collector holding 1 024 000 records in 320 streams,
// about as many as a seed-1 perfbench lu_traced run stores, so the stored
// bytes and the merge buffers meet the cache as they do there.
func BenchmarkWriteChromeTrace(b *testing.B) {
	c := exportShapedCollector(32, 5, 3200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// refCorrelate is the reference flow correlation: one map of sends and one
// of receives keyed by (Src, Dst, Tag, Seq), filled in arrival order so the
// last of each wins, then each send with a receive, sorted by key.
func refCorrelate(segs []msgSeg) []Flow {
	type key struct {
		src, dst, tag int
		seq           uint64
	}
	type endpoint struct {
		node int
		m    Msg
	}
	sends, recvs := map[key]endpoint{}, map[key]endpoint{}
	for _, sg := range segs {
		for _, m := range sg.msgs {
			k := key{m.Src, m.Dst, m.Tag, m.Seq}
			if m.Send {
				sends[k] = endpoint{sg.node, m}
			} else {
				recvs[k] = endpoint{sg.node, m}
			}
		}
	}
	out := []Flow{}
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			continue
		}
		out = append(out, Flow{
			Src: k.src, Dst: k.dst, Tag: k.tag, Bytes: s.m.Bytes, Seq: k.seq,
			SrcNode: s.node, DstNode: r.node, SrcPID: s.m.PID, DstPID: r.m.PID,
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

// fuzzMsgSegs turns fuzzer bytes into message segments, two bytes per
// endpoint event. The first picks the key from a small space (4 sources, 4
// destinations, 2 tags), the direction, and whether the event starts a new
// segment from another of four nodes; the second picks the sequence number
// (0 to 3) and stamps the pid, size and timestamps. Keys therefore repeat
// within and across segments, in both directions, and many endpoints stay
// unmatched.
func fuzzMsgSegs(data []byte) []msgSeg {
	var segs []msgSeg
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		if len(segs) == 0 || a&0x40 != 0 {
			segs = append(segs, msgSeg{node: int(a>>7) + 2*int(b>>7)})
		}
		sg := &segs[len(segs)-1]
		sg.msgs = append(sg.msgs, Msg{
			Src: int(a & 3), Dst: int(a >> 2 & 3), Tag: int(a >> 4 & 1), Send: a&0x20 != 0,
			Seq: uint64(b & 3), PID: int(b >> 2 & 7), Bytes: int(b) * 8,
			StartTSC: int64(i), EndTSC: int64(i) + int64(b),
		})
	}
	return segs
}

// FuzzCorrelate requires the sorted-reference correlation to equal the
// two-map reference on any segments fuzzMsgSegs builds, and again after
// the segments arrive in a shuffled order.
func FuzzCorrelate(f *testing.F) {
	f.Add([]byte{})
	// One send and its receive: one flow.
	f.Add([]byte{0x20, 0x01, 0x00, 0x01})
	// Two sends and two receives of one key, the last receive in a second
	// segment on another node: the later send and receive make the flow.
	f.Add([]byte{0x20, 0x01, 0x20, 0x41, 0x00, 0x05, 0x40, 0x89})
	// Two keys whose endpoints arrive in other segments than their peers',
	// receives before sends, beside an unmatched send and receive.
	f.Add([]byte{0x05, 0x01, 0x65, 0x01, 0x25, 0x00, 0xc5, 0x00, 0x26, 0x00, 0x45, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs := fuzzMsgSegs(data)
		check := func(order string) {
			got, want := correlate(segs), refCorrelate(segs)
			if !slices.Equal(got, want) {
				t.Fatalf("%s arrival: correlate = %+v\nreference     = %+v", order, got, want)
			}
		}
		check("fuzzed")
		rng := rand.New(rand.NewSource(int64(len(data))))
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		check("shuffled")
	})
}
