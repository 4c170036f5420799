package tracepipe

import (
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/ship"
)

// TestAppendFrameAllocsAmortized pins the per-round trace-frame encode at ≤1
// allocation per frame amortized when the caller reuses its buffer: the
// shipment the frame is encoded through is pooled and the output buffer is
// caller-owned, so the only tolerated allocation is an occasional pool
// refill.
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

// exportCollector holds records records on two nodes, a user and a kernel
// stream each, over five names, with three MPI messages sent from node 0 to
// node 1.
func exportCollector(records int) *Collector {
	names := []string{"sys_read", "sys_writev", "tcp_sendmsg", "schedule", "MPI_Send()"}
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindAtomic, ktau.KindExit}
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

// TestWriteChromeTraceAllocsIndependentOfRecords pins the Chrome export's
// allocations to the collector's shape (streams, distinct names, flows),
// not to its record count: references are placed into one reused buffer by
// way of one slice of bucket bounds, and events stream through one reused
// buffer, so 100 and 10 000 records cost the same allocations.
func TestWriteChromeTraceAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	allocs := func(c *Collector) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := c.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(exportCollector(100)), allocs(exportCollector(10_000))
	if large > small+2 {
		t.Fatalf("export allocated %.0f times for 10 000 records but %.0f for 100; want at most 2 more", large, small)
	}
}

// TestWriteChromeTraceBytesIndependentOfRecords pins what an export
// allocates beyond a fixed allowance, the reference and payload buffers of
// mergeRunRefs slots each: at most one byte per record, the int32 bucket
// bounds at about one bucket per four records. An export that placed a
// reference for every record at once allocated 16 bytes more per record.
func TestWriteChromeTraceBytesIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not reproducible under -race")
	}
	bytesPerExport := func(c *Collector) float64 {
		if err := c.WriteChromeTrace(io.Discard); err != nil { // warm the name cache
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 4
		for i := 0; i < runs; i++ {
			if err := c.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const records = 4 * mergeRunRefs
	small, large := bytesPerExport(exportCollector(100)), bytesPerExport(exportCollector(records))
	slot := unsafe.Sizeof(recRef{}) + unsafe.Sizeof(recPayload{})
	allowance := float64(slot*mergeRunRefs + 64<<10)
	if grown := large - small; grown > allowance+records {
		t.Fatalf("export of %d records allocated %.0f bytes, %.0f more than for 100 records; want at most %.0f more (%.0f, then one byte per record)",
			records, large, grown, allowance+records, allowance)
	}
}

// TestShippedFrameIngestBytesPerRecord pins what a shipped frame costs
// once the decoding shipment is warm. Decoding into the sink's reused
// shipment allocates nothing, and ingest allocates the records it keeps, in
// the wire's per-record layout of about 5 bytes, at no more than 8 bytes
// each plus a constant per stream: the rounding of the frame's one
// exact-size record block to the allocator's size class or whole 8 KiB
// pages, and each stream's segment-list growth. Both entries to the one
// decoder and ingest are held: the sink's, and DecodeFrameInto plus the
// exported Ingest, which convert a Frame.
func TestShippedFrameIngestBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	const streams, perStream = 16, 1024
	names := []string{"sys_read", "sys_writev", "tcp_sendmsg", "schedule", "MPI_Send()"}
	for _, records := range []int{100, 1_000, 10_000} {
		f := Frame{Node: "n1", NodeIdx: 1}
		for i := 0; i < streams; i++ {
			s := Stream{PID: 7 + i/2, Task: "lu.A", Kernel: i%2 == 1}
			for j := 0; j < records/streams; j++ {
				s.Recs = append(s.Recs, Rec{TSC: int64(j), Name: names[j%len(names)], Kind: ktau.KindEntry, Val: int64(j)})
			}
			f.Streams = append(f.Streams, s)
		}
		blob := EncodeFrame(f)
		wire := ship.HeaderBytes + len(blob)
		budget := float64(8*f.records() + perStream*streams)

		c := NewCollector(2, 450_000_000)
		var sink shipment
		decode := func() {
			if err := sink.decode(blob); err != nil {
				t.Fatal(err)
			}
		}
		var pub Frame
		paths := []struct {
			name string
			run  func()
		}{
			{"sink", func() { decode(); c.ingest(&sink, wire) }},
			{"DecodeFrameInto+Ingest", func() {
				if err := DecodeFrameInto(&pub, blob); err != nil {
					t.Fatal(err)
				}
				c.Ingest(pub, wire)
			}},
		}
		for _, p := range paths {
			for i := 0; i < 3; i++ { // warm the shipments, the frame and the stream states
				p.run()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 50
			for i := 0; i < runs; i++ {
				p.run()
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > budget {
				t.Errorf("%s, %d records: %.0f bytes per frame, want at most %.0f (8 per record + %d per stream)",
					p.name, f.records(), got, budget, perStream)
			}
		}
		if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
			t.Errorf("%d records: decoding into the warmed sink shipment allocated %.2f times, want 0", f.records(), allocs)
		}
	}
}

// TestAgentRoundZeroAllocs pins a warmed ktraced round at zero allocations:
// draining every kernel ring through procfs and appending its records to
// the reused shipment, draining user rings and a message log whose sources
// reuse their buffers (as the TAU and message-log drains do), building the
// dictionary in place, and encoding the frame.
func TestAgentRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("node", 1),
		Ktau:  ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, TraceCapacity: 1024},
		Seed:  5,
	})
	t.Cleanup(c.Shutdown)
	const interval = 10 * time.Millisecond
	c.Node(0).K.Spawn("app", func(u *kernel.UCtx) {
		for {
			u.Compute(2 * time.Millisecond)
			u.Sleep(time.Millisecond)
		}
	}, kernel.SpawnOpts{})

	var user [2]Rec
	var msg [1]Msg
	drains := 0
	users := []UserSource{{PID: 1000, Task: "user", Drain: func() ([]Rec, uint64) {
		drains++
		base := int64(drains) * 1000
		user[0] = Rec{TSC: base, Name: "MPI_Recv()", Kind: ktau.KindEntry}
		user[1] = Rec{TSC: base + 500, Name: "MPI_Recv()", Kind: ktau.KindExit}
		return user[:], 0
	}}}
	msgs := []MsgSource{{Drain: func() []Msg {
		msg[0] = Msg{Src: 0, Dst: 1, Seq: uint64(drains), Send: true, PID: 1000, EndTSC: int64(drains)}
		return msg[:]
	}}}
	tp := &Pipeline{c: c, cfg: Config{
		Interval:    interval,
		UserSources: func(int) []UserSource { return users },
		MsgSources:  func(int) []MsgSource { return msgs },
	}}
	if _, err := tp.setup(); err != nil {
		t.Fatal(err)
	}
	a := tp.newAgent(0, c.Node(0)).(*agent)

	var allocs float64
	var kernRecs int
	agentTask := c.Node(0).K.Spawn("ktraced", func(u *kernel.UCtx) {
		round := 0
		step := func() {
			u.Sleep(interval)
			s, _ := a.Round(u, round, false)
			a.Shipped(s, true)
			round++
			for _, h := range s.streams {
				if h.kernel {
					kernRecs += h.n
				}
			}
		}
		for i := 0; i < 5; i++ { // warm every reused buffer
			step()
		}
		kernRecs = 0
		allocs = testing.AllocsPerRun(20, step)
	}, kernel.SpawnOpts{Kind: kernel.KindDaemon})
	if !c.RunUntilDone([]*kernel.Task{agentTask}, time.Minute) {
		t.Fatal("agent task did not finish")
	}
	if kernRecs == 0 {
		t.Fatal("measured rounds drained no kernel records")
	}
	if allocs != 0 {
		t.Fatalf("warmed agent round allocated %.2f times, want 0", allocs)
	}
}
