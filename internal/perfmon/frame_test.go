package perfmon

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ktau/internal/ktau"
)

func sampleFrame() Frame {
	return Frame{
		Node:    "node3",
		NodeIdx: 3,
		Round:   7,
		CPUs:    2,
		FromTSC: 1000,
		ToTSC:   2500,
		Last:    true,
		Kernel: []ktau.EventDelta{
			{Name: "do_IRQ[timer]", Group: ktau.GroupIRQ, DCalls: 12, DIncl: 480, DExcl: 480},
			{Name: "schedule", Group: ktau.GroupSched, Absolute: true, DCalls: 3, DIncl: 90, DExcl: 90},
		},
		Procs: []ProcDelta{
			{PID: 42, Name: "LU.rank0", DTotal: 700, DIRQ: 300, DBH: 100, DSched: 300, DTCP: 0, DTicks: 9},
			{PID: 99, Name: "kjournald", DTotal: 50, DSched: 50},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleFrame()
	got, err := DecodeFrame(EncodeFrame(want))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	want := Frame{Node: "n", Round: 0}
	got, err := DecodeFrame(EncodeFrame(want))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic accepted")
	}
	blob := EncodeFrame(sampleFrame())
	for _, cut := range []int{len(blob) - 1, len(blob) / 2, 5} {
		if _, err := DecodeFrame(blob[:cut]); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(blob))
		}
	}
	oldVer := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(oldVer[4:], 1)
	if _, err := DecodeFrame(oldVer); err == nil {
		t.Fatal("version-1 frame accepted")
	}
	if _, err := DecodeFrame(hugeCount()); err == nil {
		t.Fatal("event count larger than the frame accepted")
	}
	if _, err := DecodeFrame(traceHugeNameCount); err == nil {
		t.Fatal("28-byte trace payload accepted")
	}
}

// traceHugeNameCount is the 28-byte trace-frame payload (magic "KTRC",
// version 2, empty node name, eight zero header fields, name count uvarint
// 1<<63) that once panicked the trace decoder; perfmon must reject it too.
var traceHugeNameCount = []byte{
	0x43, 0x52, 0x54, 0x4b, 2, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0,
	0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
}

// hugeCount is a well-formed header followed by an event count far larger
// than the bytes left — perfmon's twin of the tracepipe input that once
// panicked its decoder.
func hugeCount() []byte {
	b := EncodeFrame(Frame{})
	binary.LittleEndian.PutUint32(b[len(b)-8:], 1<<31)
	return b
}

// richFrame is a frame richer than any seed: more kernel events and
// processes, longer names and every flag set. Decoding it, then setting the
// event fields the wire does not carry, leaves every field of the storage
// dirty.
func richFrame() []byte {
	long := strings.Repeat("stale_", 40)
	f := Frame{Node: long, NodeIdx: 9, Round: 99, CPUs: 8, FromTSC: 5, ToTSC: 6, Last: true, Gap: true}
	for i := 0; i < 12; i++ {
		f.Kernel = append(f.Kernel, ktau.EventDelta{Name: long, Group: ktau.GroupAll,
			Absolute: true, DCalls: 1, DIncl: 2, DExcl: 3})
		f.Procs = append(f.Procs, ProcDelta{PID: 1000 + i, Name: long,
			DTotal: 1, DIRQ: 2, DBH: 3, DSched: 4, DTCP: 5, DTicks: 6})
	}
	return EncodeFrame(f)
}

// normFrame makes fr's empty slices nil, so decodes into fresh and reused
// storage compare equal under reflect.DeepEqual.
func normFrame(fr Frame) Frame {
	if len(fr.Kernel) == 0 {
		fr.Kernel = nil
	}
	if len(fr.Procs) == 0 {
		fr.Procs = nil
	}
	return fr
}

// FuzzDecodeFrame: decoding never panics, and any input that decodes
// survives an encode/decode round trip unchanged. Decoding into a frame
// dirtied by a richer decode gives the same result as decoding into a
// fresh one.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []Frame{sampleFrame(), {Node: "n"}} {
		blob := EncodeFrame(fr)
		for n := 0; n <= len(blob); n++ {
			f.Add(blob[:n])
		}
	}
	f.Add(hugeCount())
	f.Add(traceHugeNameCount)
	rich := richFrame()
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		var dirty Frame
		if err := DecodeFrameInto(&dirty, rich); err != nil {
			t.Fatalf("rich frame: %v", err)
		}
		for i := range dirty.Kernel {
			e := &dirty.Kernel[i]
			e.ID, e.DSubrs, e.DCtr = 7, 8, [ktau.MaxCounters]int64{1, 2, 3, 4}
		}
		errReused := DecodeFrameInto(&dirty, b)
		if (err == nil) != (errReused == nil) {
			t.Fatalf("fresh decode: %v; decode into a reused frame: %v", err, errReused)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(normFrame(dirty), normFrame(fr)) {
			t.Fatalf("decode into a reused frame differs:\n got %+v\nwant %+v", dirty, fr)
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
