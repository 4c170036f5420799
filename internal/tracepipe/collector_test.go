package tracepipe

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ktau/internal/ktau"
)

// storeFrames builds frames that reach every corner of the stored record
// layout: TSCs that jump between math.MinInt64 and math.MaxInt64, so deltas
// wrap, and unordered TSCs in narrow ranges wholly above and wholly below
// zero; kinds 0 and 255 beside the three real ones; 300 distinct names, so
// name indices take two bytes; non-zero values on entry and exit records,
// extremes included; and streams that carry no records, in frames that
// carry some and in a frame that carries none.
func storeFrames() []Frame {
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("ev%03d", i)
	}
	kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindExit, ktau.KindAtomic, 0, 255}
	vals := []int64{1, -1, math.MaxInt64, math.MinInt64, 1 << 40, 0, -300}
	tscs := []int64{math.MinInt64, math.MaxInt64, 0, math.MaxInt64, math.MinInt64, -1, 1 << 62, math.MinInt64 + 1}
	seq := 0
	stream := func(pid int, kernel bool, n int) Stream {
		s := Stream{PID: pid, Task: fmt.Sprintf("task%d", pid), Kernel: kernel, Lost: uint64(pid), Sampled: uint64(n)}
		for i := 0; i < n; i++ {
			seq++
			s.Recs = append(s.Recs, Rec{
				TSC:  tscs[seq%len(tscs)] + int64(seq%3),
				Name: names[(seq*7)%len(names)],
				Kind: kinds[seq%len(kinds)],
				Val:  vals[seq%len(vals)],
			})
		}
		return s
	}
	narrow := func(pid int, base int64) Stream {
		s := Stream{PID: pid, Task: fmt.Sprintf("task%d", pid), Kernel: true}
		for i := int64(0); i < 20; i++ {
			s.Recs = append(s.Recs, Rec{TSC: base + i*7%11, Name: names[i], Kind: ktau.KindExit, Val: -i})
		}
		return s
	}
	return []Frame{
		{NodeIdx: 0, Streams: []Stream{stream(1, false, 40), stream(1, true, 0), stream(2, true, 200)}},
		{NodeIdx: 1, Streams: []Stream{stream(1, true, 0), stream(3, false, 0)}},
		{NodeIdx: 1, Streams: []Stream{stream(1, true, 150), stream(4, false, 1)}},
		{NodeIdx: 0, Streams: []Stream{stream(2, true, 90), stream(1, false, 0), stream(1, true, 3)}},
		{NodeIdx: 1, Streams: []Stream{narrow(5, 1<<40), narrow(6, -1<<40)}},
	}
}

// TestStoredSegmentsRoundTrip requires every stored segment to decode to
// exactly the records of the frame stream it was ingested from, to be
// exactly as long as their encoding, and to carry their exact count and
// TSC range; streams that carried no records hold no segment. It runs
// through both ways into the one ingest: the exported Ingest, which
// converts the Frame, and the sink's decode of the encoded frame into a
// reused shipment.
func TestStoredSegmentsRoundTrip(t *testing.T) {
	frames := storeFrames()
	want := map[streamKey][][]Rec{}
	for _, f := range frames {
		for _, s := range f.Streams {
			key := streamKey{NodeIdx: f.NodeIdx, PID: s.PID, Kernel: s.Kernel}
			segs := want[key]
			if len(s.Recs) > 0 {
				segs = append(segs, s.Recs)
			}
			want[key] = segs
		}
	}
	ingests := map[string]func(c *Collector, f Frame){
		"Ingest": func(c *Collector, f Frame) { c.Ingest(f, 0) },
		"sink": func() func(*Collector, Frame) {
			var sink shipment
			return func(c *Collector, f Frame) {
				blob := EncodeFrame(f)
				if err := sink.decode(blob); err != nil {
					t.Fatal(err)
				}
				c.ingest(&sink, len(blob))
			}
		}(),
	}
	for name, ingest := range ingests {
		t.Run(name, func(t *testing.T) {
			c := NewCollector(2, 1_000_000)
			for _, f := range frames {
				ingest(c, f)
			}
			if len(c.streams) != len(want) {
				t.Fatalf("collector holds %d streams, want %d", len(c.streams), len(want))
			}
			for key, segs := range want {
				st := c.streams[key]
				if st == nil {
					t.Fatalf("stream %+v missing", key)
				}
				if len(st.segs) != len(segs) {
					t.Fatalf("stream %+v holds %d segments, want %d", key, len(st.segs), len(segs))
				}
				for i, sg := range st.segs {
					recs := segs[i]
					if got := c.stored(sg); !slices.Equal(got, recs) {
						t.Fatalf("stream %+v segment %d decodes to\n%+v\nwant\n%+v", key, i, got, recs)
					}
					r := segReader{b: sg.recs}
					for range sg.n {
						r.nextTSC()
						r.skipRest()
					}
					if r.off != len(sg.recs) {
						t.Errorf("stream %+v segment %d: %d records end at byte %d of %d", key, i, sg.n, r.off, len(sg.recs))
					}
					lo, hi := recs[0].TSC, recs[0].TSC
					for _, rec := range recs {
						lo, hi = min(lo, rec.TSC), max(hi, rec.TSC)
					}
					if sg.n != len(recs) || sg.lo != lo || sg.hi != hi {
						t.Errorf("stream %+v segment %d: n, lo, hi = %d, %d, %d; want %d, %d, %d",
							key, i, sg.n, sg.lo, sg.hi, len(recs), lo, hi)
					}
				}
			}
		})
	}
}

// TestNodeEventCountsMatchFrames requires NodeEventCounts to equal a count
// taken over the ingested frames, for names that index in one byte and in
// two, names asked twice, and a name no record carries.
func TestNodeEventCountsMatchFrames(t *testing.T) {
	frames := storeFrames()
	c := NewCollector(3, 1_000_000)
	for _, f := range frames {
		c.Ingest(f, 0)
	}
	for _, names := range [][]string{
		{"ev007"},
		{"ev007", "ev210", "ev007"},
		{"ev299", "ev000", "ev133"},
		{"absent"},
		nil,
	} {
		want := make([]uint64, 3)
		for _, f := range frames {
			for _, s := range f.Streams {
				for _, r := range s.Recs {
					if slices.Contains(names, r.Name) {
						want[f.NodeIdx]++
					}
				}
			}
		}
		if got := c.NodeEventCounts(names...); !slices.Equal(got, want) {
			t.Errorf("NodeEventCounts(%q) = %v, want %v", names, got, want)
		}
	}
}
