package tracepipe

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ktau/internal/ktau"
)

func sampleFrame() Frame {
	return Frame{
		Node: "ccn3", NodeIdx: 3, Round: 7, Last: true, Throttle: 2,
		Backlog: 12, ReadErrs: 2, Dropped: 1, DroppedRecs: 40,
		Streams: []Stream{
			{PID: 101, Task: "LU.rank3", Kernel: true, Lost: 5, Sampled: 17, Recs: []Rec{
				{TSC: 1000, Name: "schedule", Kind: ktau.KindEntry},
				{TSC: 1100, Name: "schedule", Kind: ktau.KindExit},
				{TSC: 1200, Name: `do_IRQ["timer"]`, Kind: ktau.KindAtomic, Val: 9},
			}},
			{PID: 101, Task: "LU.rank3", Kernel: false, Recs: []Rec{
				{TSC: 1050, Name: "MPI_Recv()", Kind: ktau.KindEntry},
				{TSC: 1300, Name: "MPI_Recv()", Kind: ktau.KindExit},
			}},
		},
		Msgs: []Msg{
			{Src: 3, Dst: 5, Tag: 7, Bytes: 4096, Seq: 2, Send: true,
				PID: 101, StartTSC: 1060, EndTSC: 1090},
			{Src: 5, Dst: 3, Tag: 8, Bytes: 64, Seq: 0, Send: false,
				PID: 101, StartTSC: 1110, EndTSC: 1290},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	blob := EncodeFrame(f)
	got, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
	if f.records() != 5 {
		t.Fatalf("records() = %d, want 5", f.records())
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	f := Frame{Node: "n0", Round: 0}
	got, err := DecodeFrame(EncodeFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "n0" || len(got.Streams) != 0 || len(got.Msgs) != 0 {
		t.Fatalf("empty round trip = %+v", got)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("nil payload must fail")
	}
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Error("short payload must fail")
	}
	blob := EncodeFrame(sampleFrame())
	// Every truncation point must produce an error, never a panic.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeFrame(blob[:n]); err == nil {
			t.Fatalf("truncation at %d decoded without error", n)
		}
	}
	// Flipping the magic must fail.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("bad magic must fail")
	}
	// Only the current version decodes; the old fixed-width v1 is gone.
	oldVer := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(oldVer[4:], 1)
	if _, err := DecodeFrame(oldVer); err == nil {
		t.Error("version-1 frame must fail")
	}
	if huge := hugeNameCount(); len(huge) != 28 {
		t.Errorf("regression input is %d bytes, want 28", len(huge))
	} else if _, err := DecodeFrame(huge); err == nil {
		t.Error("name count of 1<<63 must fail")
	}
}

// hugeNameCount is a 28-byte payload that once panicked DecodeFrame with
// "makeslice: cap out of range": magic, version 2, an empty node name, eight
// zero header fields, then a name count of uvarint 1<<63, which converted to
// a negative int before the length guard saw it.
func hugeNameCount() []byte {
	b := binary.LittleEndian.AppendUint32(nil, TraceMagic)
	b = binary.LittleEndian.AppendUint32(b, TraceVersion)
	b = append(b, 0, 0)               // empty node name
	b = append(b, make([]byte, 8)...) // NodeIdx, Round, Last, Throttle, Backlog, ReadErrs, Dropped, DroppedRecs
	return binary.AppendUvarint(b, 1<<63)
}

// richFrame encodes a frame with more streams, records, names and messages
// than the seeds, longer strings, and every flag and counter set: decoding
// it first leaves a reused frame or shipment dirty in every field a
// smaller one skips.
func richFrame() []byte {
	long := strings.Repeat("stale_", 40)
	f := Frame{Node: long, NodeIdx: 9, Round: 99, Last: true, Throttle: 3,
		Backlog: 5, ReadErrs: 6, Dropped: 7, DroppedRecs: 8}
	for i := 0; i < 6; i++ {
		s := Stream{PID: 1000 + i, Task: long, Kernel: i%2 == 0, Lost: 11, Sampled: 12}
		for j := 0; j < 20; j++ {
			s.Recs = append(s.Recs, Rec{TSC: int64(j * 3), Name: fmt.Sprintf("%s%d", long, j%9),
				Kind: ktau.KindAtomic, Val: int64(-j)})
		}
		f.Streams = append(f.Streams, s)
		f.Msgs = append(f.Msgs, Msg{Src: i, Dst: i + 1, Tag: 4, Bytes: 99, Seq: 5,
			Send: true, PID: 1000 + i, StartTSC: 7, EndTSC: 9})
	}
	return EncodeFrame(f)
}

// records counts the trace records carried by the frame.
func (f Frame) records() int {
	n := 0
	for _, s := range f.Streams {
		n += len(s.Recs)
	}
	return n
}

// normFrame makes fr's empty slices nil, so decodes into fresh and reused
// storage compare equal under reflect.DeepEqual.
func normFrame(fr Frame) Frame {
	if len(fr.Streams) == 0 {
		fr.Streams = nil
	}
	for i := range fr.Streams {
		if len(fr.Streams[i].Recs) == 0 {
			fr.Streams[i].Recs = nil
		}
	}
	if len(fr.Msgs) == 0 {
		fr.Msgs = nil
	}
	return fr
}

// normShipment is s with everything past its lengths cut off and its empty
// slices nil, so decodes into fresh and reused shipments compare equal
// under reflect.DeepEqual.
func normShipment(s *shipment) shipment {
	n := shipment{frameHead: s.frameHead, dict: dict{names: s.dict.names},
		streams: s.streams, recs: s.recs, msgs: s.msgs}
	if len(n.dict.names) == 0 {
		n.dict.names = nil
	}
	if len(n.streams) == 0 {
		n.streams = nil
	}
	if len(n.recs) == 0 {
		n.recs = nil
	}
	if len(n.msgs) == 0 {
		n.msgs = nil
	}
	return n
}

// FuzzDecodeFrame: decoding never panics, and any input that decodes
// survives an encode/decode round trip unchanged. Decoding into a sink's
// shipment dirtied by a richer decode gives the same shipment as decoding
// into a fresh one, and every record it holds is the decoded frame's.
// DecodeFrameInto a Frame dirtied by a richer decode gives DecodeFrame's
// result, and on an error leaves the Frame as it was.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []Frame{sampleFrame(), {Node: "n0"}} {
		blob := EncodeFrame(fr)
		for n := 0; n <= len(blob); n++ {
			f.Add(blob[:n])
		}
	}
	f.Add(hugeNameCount())
	rich := richFrame()
	richFr, err := DecodeFrame(rich)
	if err != nil {
		f.Fatalf("rich frame: %v", err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		var fresh, dirty shipment
		if err := dirty.decode(rich); err != nil {
			t.Fatalf("rich frame: %v", err)
		}
		errFresh, errReused := fresh.decode(b), dirty.decode(b)
		if (err == nil) != (errFresh == nil) || (err == nil) != (errReused == nil) {
			t.Fatalf("DecodeFrame: %v; decode into a fresh shipment: %v; into a reused one: %v", err, errFresh, errReused)
		}
		var reused Frame
		if err := DecodeFrameInto(&reused, rich); err != nil {
			t.Fatalf("rich frame: %v", err)
		}
		errInto := DecodeFrameInto(&reused, b)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("DecodeFrame: %v; DecodeFrameInto a reused frame: %v", err, errInto)
		}
		if err != nil {
			if !reflect.DeepEqual(reused, richFr) {
				t.Fatalf("a failed DecodeFrameInto changed the frame:\n got %+v\nwant %+v", reused, richFr)
			}
			return
		}
		if !reflect.DeepEqual(normFrame(reused), normFrame(fr)) {
			t.Fatalf("DecodeFrameInto a reused frame differs:\n got %+v\nwant %+v", reused, fr)
		}
		if !reflect.DeepEqual(normShipment(&dirty), normShipment(&fresh)) {
			t.Fatalf("decode into a reused shipment differs:\n got %+v\nwant %+v", dirty, fresh)
		}
		var back Frame
		dirty.frame(&back)
		if !reflect.DeepEqual(back, fr) {
			t.Fatalf("the shipment holds\n%+v\nwhere DecodeFrame gives\n%+v", back, fr)
		}
		again, err := DecodeFrame(EncodeFrame(fr))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", fr, again)
		}
	})
}

func TestFrameDictionarySharesNames(t *testing.T) {
	mk := func(reps int) Frame {
		var recs []Rec
		for i := 0; i < reps; i++ {
			recs = append(recs, Rec{TSC: int64(i), Name: "some_long_instrumentation_point_name", Kind: ktau.KindEntry})
		}
		return Frame{Node: "n", Streams: []Stream{{PID: 1, Task: "t", Kernel: true, Recs: recs}}}
	}
	one := len(EncodeFrame(mk(1)))
	hundred := len(EncodeFrame(mk(100)))
	perRec := float64(hundred-one) / 99
	// Dictionary + varint delta encoding: a repeated-name record is a small
	// TSC delta, a dictionary index, a kind byte and a zero value — a handful
	// of bytes, not the 21 a fixed-width layout spends.
	if perRec > 8 {
		t.Fatalf("per-record cost %.1f bytes suggests varint delta encoding regressed", perRec)
	}
}
