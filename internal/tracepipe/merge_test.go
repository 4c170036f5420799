package tracepipe

import (
	"bytes"
	"encoding/json"
	"fmt"
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
		for _, seg := range c.streams[key].segs {
			for _, r := range seg {
				out = append(out, refMergedEvent{key: key, rec: r})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].rec.TSC < out[j].rec.TSC })
	return out
}

// TestMergeOrderMatchesStableSort pins the export's record order to the
// reference merge on TSC ties across nodes, pids and the user/kernel
// layers, on records split over several frames arriving out of node order,
// and on a stream whose records are not in TSC order.
func TestMergeOrderMatchesStableSort(t *testing.T) {
	const hz = 1_000_000
	c := NewCollector(3, hz)
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
	frames := []Frame{
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
	}
	for _, f := range frames {
		c.Ingest(f, 0)
	}

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := exportedRecords(t, buf.Bytes())

	ref := refMerged(c)
	base := ref[0].rec.TSC
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
			TS:  float64(e.rec.TSC-base) / hz * 1e6,
			PID: e.key.NodeIdx, TID: trackID(e.key.PID, e.key.Kernel),
		})
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d record events, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
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
// built on the agent's round record buffer, which the agent overwrites the
// next round. Ingest must copy those records out: overwriting the buffer
// after the ingest leaves the Chrome export unchanged.
func TestLoopbackIngestCopiesAgentBuffer(t *testing.T) {
	c := NewCollector(1, 1_000_000)
	recBuf := make([]Rec, 0, 8) // the agent's round buffer
	for i := 0; i < 6; i++ {
		recBuf = append(recBuf, Rec{TSC: int64(100 + i), Name: fmt.Sprintf("ev%d", i), Kind: ktau.KindAtomic, Val: int64(i)})
	}
	c.Ingest(Frame{NodeIdx: 0, Streams: []Stream{
		{PID: 1, Task: "a", Kernel: true, Recs: recBuf[0:4:4]},
		{PID: 2, Task: "b", Kernel: true, Recs: recBuf[4:6:6]},
	}}, 0)
	var before bytes.Buffer
	if err := c.WriteChromeTrace(&before); err != nil {
		t.Fatal(err)
	}

	recBuf = recBuf[:0] // the next round reuses the buffer
	for i := 0; i < 8; i++ {
		recBuf = append(recBuf, Rec{TSC: int64(900 - i), Name: "overwritten", Kind: ktau.KindEntry})
	}
	var after bytes.Buffer
	if err := c.WriteChromeTrace(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("overwriting the agent's buffer changed the export:\nbefore %s\nafter  %s", before.Bytes(), after.Bytes())
	}
	if n := len(exportedRecords(t, after.Bytes())); n != 6 {
		t.Fatalf("export holds %d records, want 6", n)
	}
}
