package tracepipe

import (
	"io"
	"runtime"
	"testing"

	"ktau/internal/ktau"
)

// TestAppendFrameAllocsAmortized pins the per-round trace-frame encode at ≤1
// allocation per frame amortized when the caller reuses its buffer: the name
// dictionary is pooled and the output buffer is caller-owned, so the only
// tolerated allocation is an occasional pool refill.
func TestAppendFrameAllocsAmortized(t *testing.T) {
	f := Frame{Node: "n3", NodeIdx: 3, Round: 17}
	recs := make([]Rec, 0, 256)
	for i := 0; i < 256; i++ {
		recs = append(recs, Rec{TSC: int64(i), Name: "sys_read", Kind: ktau.KindEntry})
	}
	f.Streams = []Stream{{PID: 1, Task: "lu.A", Kernel: true, Recs: recs}}

	var buf []byte
	buf = AppendFrame(buf[:0], f) // warm to steady-state capacity

	allocs := testing.AllocsPerRun(500, func() {
		buf = AppendFrame(buf[:0], f)
	})
	if allocs > 1 {
		t.Fatalf("AppendFrame allocated %.2f allocs/frame, want <= 1 amortized", allocs)
	}
}

// TestWriteChromeTraceAllocsIndependentOfRecords pins the Chrome export's
// allocations to the collector's shape (streams, distinct names, flows),
// not to its record count: references are sorted in one slice and events
// stream through one reused buffer, so 100 and 10 000 records cost the
// same allocations.
func TestWriteChromeTraceAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	names := []string{"sys_read", "sys_writev", "tcp_sendmsg", "schedule", "MPI_Send()"}
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindAtomic, ktau.KindExit}
	collector := func(records int) *Collector {
		c := NewCollector(2, 450_000_000)
		for node := 0; node < 2; node++ {
			f := Frame{NodeIdx: node}
			for _, kernel := range []bool{false, true} {
				s := Stream{PID: 1, Task: "lu.A", Kernel: kernel}
				for i := 0; i < records/4; i++ {
					s.Recs = append(s.Recs, Rec{TSC: int64(3*i + node), Name: names[i%len(names)], Kind: kinds[i%len(kinds)], Val: int64(i)})
				}
				f.Streams = append(f.Streams, s)
			}
			for seq := uint64(0); seq < 3; seq++ {
				f.Msgs = append(f.Msgs, Msg{Src: 0, Dst: 1, Seq: seq, Send: node == 0, PID: 1, EndTSC: int64(seq)})
			}
			c.Ingest(f, 0)
		}
		return c
	}
	allocs := func(c *Collector) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := c.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(collector(100)), allocs(collector(10_000))
	if large > small+2 {
		t.Fatalf("export allocated %.0f times for 10 000 records but %.0f for 100; want at most 2 more", large, small)
	}
}

// TestIngestDecodedFrameAllocsIndependentOfRecords pins the collector's
// ingest of a shipped frame: the decoded streams' records are kept where
// they are, as one segment each, not copied into a growing per-stream
// slice, so a frame of 10 000 records costs the same allocations as one of
// 100 — and, since an amortized copy shows as zero allocations per run,
// the same bytes too.
func TestIngestDecodedFrameAllocsIndependentOfRecords(t *testing.T) {
	allocs := func(records int) (count, bytes float64) {
		f := Frame{Node: "n1", NodeIdx: 1}
		for _, kernel := range []bool{false, true} {
			s := Stream{PID: 7, Task: "lu.A", Kernel: kernel}
			for i := 0; i < records/2; i++ {
				s.Recs = append(s.Recs, Rec{TSC: int64(i), Name: "sys_read", Kind: ktau.KindEntry})
			}
			f.Streams = append(f.Streams, s)
		}
		blob := EncodeFrame(f)
		decoded, err := DecodeFrame(blob)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(2, 450_000_000)
		c.Ingest(decoded, TraceHeaderBytes+len(blob)) // create the stream states
		for _, s := range decoded.Streams {
			st := c.streams[streamKey{NodeIdx: 1, PID: s.PID, Kernel: s.Kernel}]
			if len(st.segs) != 1 || &st.segs[0][0] != &s.Recs[0] {
				t.Fatalf("kernel=%v: the decoded records were not kept as the stream's segment", s.Kernel)
			}
		}
		ingest := func() { c.Ingest(decoded, TraceHeaderBytes+len(blob)) }
		count = testing.AllocsPerRun(100, ingest)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			ingest()
		}
		runtime.ReadMemStats(&after)
		return count, float64(after.TotalAlloc-before.TotalAlloc) / 100
	}
	small, smallBytes := allocs(100)
	large, largeBytes := allocs(10_000)
	if large != small {
		t.Fatalf("ingest allocated %.2f times for 10 000 records but %.2f for 100; want the same", large, small)
	}
	if !raceEnabled && largeBytes > smallBytes+64 {
		t.Fatalf("ingest allocated %.0f bytes per frame of 10 000 records but %.0f for 100; want the same", largeBytes, smallBytes)
	}
}
