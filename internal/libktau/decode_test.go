package libktau

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ktau/internal/ktau"
	"ktau/internal/procfs"
)

// hugeProfileCount is a 12-byte profile blob — magic, version and a
// snapshot count of 0xFFFFFFF0 — that once made DecodeProfiles size its
// result from the count and stop the process with "fatal error: runtime:
// out of memory".
func hugeProfileCount() []byte {
	b := binary.LittleEndian.AppendUint32(nil, procfs.Magic)
	b = binary.LittleEndian.AppendUint32(b, procfs.Version)
	return binary.LittleEndian.AppendUint32(b, 0xFFFFFFF0)
}

// hugeTraceCount is a 28-byte trace blob — magic, version, pid, lost and a
// record count of 0xFFFFFFF0 — that once made DecodeTrace append zero
// records until the process was killed.
func hugeTraceCount() []byte {
	b := binary.LittleEndian.AppendUint32(nil, procfs.Magic)
	b = binary.LittleEndian.AppendUint32(b, procfs.Version)
	b = binary.LittleEndian.AppendUint64(b, 42)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return binary.LittleEndian.AppendUint32(b, 0xFFFFFFF0)
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	if b := hugeProfileCount(); len(b) != 12 {
		t.Fatalf("profile regression input is %d bytes, want 12", len(b))
	} else if _, err := DecodeProfiles(b); !errors.Is(err, errCount) {
		t.Errorf("DecodeProfiles(count 0xFFFFFFF0) = %v, want %v", err, errCount)
	}
	if b := hugeTraceCount(); len(b) != 28 {
		t.Fatalf("trace regression input is %d bytes, want 28", len(b))
	} else if _, err := DecodeTrace(b); !errors.Is(err, errCount) {
		t.Errorf("DecodeTrace(count 0xFFFFFFF0) = %v, want %v", err, errCount)
	}
}

// realBlobs reads profile and trace blobs through procfs from a populated
// measurement with counters, atomics, mapped data and a wrapped ring.
func realBlobs(t testing.TB) (profiles, traces [][]byte) {
	e := &env{}
	m := ktau.NewMeasurement(e, ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
		Mapping: true, TraceCapacity: 4, RetainExited: true,
	})
	m.SetCounterSource(&fakeCounters{v: [ktau.MaxCounters]int64{7, 9}})
	populate(m, e)
	other := m.CreateTask(43, "other")
	m.AddSpan(other, m.Event("schedule", ktau.GroupSched), 500)
	m.ExitTask(other)
	fs := procfs.New(m)
	for _, pid := range []int{procfs.PIDKernelWide, procfs.PIDAll, 42, 43} {
		n, err := fs.ProfileSize(pid)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, n)
		if _, err := fs.ProfileRead(pid, b); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, b)
	}
	for _, pid := range []int{42, 42, 43} { // the second read of 42 is empty
		n, err := fs.TraceSize(pid)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, n)
		if _, err := fs.TraceRead(pid, b); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, b)
	}
	return profiles, traces
}

// TestDecodeIsExact: a blob decodes only if it is exactly what procfs packs
// for the decoded value, which is what lets the fuzz targets require byte
// equality of the re-packed blob. Real blobs round-trip; every truncation,
// a trailing byte, an exited flag other than 0 or 1, and more counters than
// a profile holds are errors.
func TestDecodeIsExact(t *testing.T) {
	profiles, traces := realBlobs(t)
	for i, b := range profiles {
		snaps, err := DecodeProfiles(b)
		if err != nil {
			t.Fatalf("profile blob %d: %v", i, err)
		}
		if !bytes.Equal(procfs.AppendProfiles(nil, snaps), b) {
			t.Errorf("profile blob %d does not re-pack to itself", i)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeProfiles(b[:n]); err == nil {
				t.Fatalf("profile blob %d truncated to %d bytes decoded", i, n)
			}
		}
		if _, err := DecodeProfiles(append(append([]byte(nil), b...), 0)); !errors.Is(err, errTrailing) {
			t.Errorf("profile blob %d plus a byte: err = %v, want %v", i, err, errTrailing)
		}
	}
	for i, b := range traces {
		d, err := DecodeTrace(b)
		if err != nil {
			t.Fatalf("trace blob %d: %v", i, err)
		}
		if !bytes.Equal(procfs.AppendTrace(nil, d.PID, d.Lost, d.Records), b) {
			t.Errorf("trace blob %d does not re-pack to itself", i)
		}
		for n := 0; n < len(b); n++ {
			if _, err := DecodeTrace(b[:n]); err == nil {
				t.Fatalf("trace blob %d truncated to %d bytes decoded", i, n)
			}
		}
		if _, err := DecodeTrace(append(append([]byte(nil), b...), 0)); !errors.Is(err, errTrailing) {
			t.Errorf("trace blob %d plus a byte: err = %v, want %v", i, err, errTrailing)
		}
	}

	one := procfs.AppendProfiles(nil, []ktau.Snapshot{{PID: 1, Exited: true}})
	const exitedAt = 12 + 8 + 2 + 3*8 // header, pid, empty name, three timestamps
	if one[exitedAt] != 1 {
		t.Fatalf("exited flag not at offset %d", exitedAt)
	}
	one[exitedAt] = 2
	if _, err := DecodeProfiles(one); !errors.Is(err, errFlag) {
		t.Errorf("exited flag 2: err = %v, want %v", err, errFlag)
	}
	names := make([]string, ktau.MaxCounters+1)
	over := procfs.AppendProfiles(nil, []ktau.Snapshot{{PID: 1, CounterNames: names}})
	if _, err := DecodeProfiles(over); !errors.Is(err, errCounters) {
		t.Errorf("%d counters: err = %v, want %v", len(names), err, errCounters)
	}
}

// FuzzDecodeProfiles: DecodeProfiles never panics, and anything it decodes
// re-packs through procfs to the same bytes.
func FuzzDecodeProfiles(f *testing.F) {
	profiles, _ := realBlobs(f)
	for _, b := range profiles {
		for n := 0; n <= len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Add(hugeProfileCount())
	f.Add(hugeTraceCount())
	f.Fuzz(func(t *testing.T, b []byte) {
		snaps, err := DecodeProfiles(b)
		if err != nil {
			return
		}
		if again := procfs.AppendProfiles(nil, snaps); !bytes.Equal(again, b) {
			t.Fatalf("decoded blob re-packs differently:\n in: %x\nout: %x", b, again)
		}
	})
}

// FuzzDecodeTrace: DecodeTrace never panics, and anything it decodes
// re-packs through procfs to the same bytes.
func FuzzDecodeTrace(f *testing.F) {
	_, traces := realBlobs(f)
	for _, b := range traces {
		for n := 0; n <= len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Add(hugeProfileCount())
	f.Add(hugeTraceCount())
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeTrace(b)
		if err != nil {
			return
		}
		if again := procfs.AppendTrace(nil, d.PID, d.Lost, d.Records); !bytes.Equal(again, b) {
			t.Fatalf("decoded blob re-packs differently:\n in: %x\nout: %x", b, again)
		}
	})
}

// TestGetTraceAllocsIndependentOfRecords pins a warmed Handle's trace read:
// the blob lands in the handle's scratch and the records are decoded into
// one sized slice, so 10 and 1000 records cost the same allocations.
func TestGetTraceAllocsIndependentOfRecords(t *testing.T) {
	e := &env{}
	m := ktau.NewMeasurement(e, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, TraceCapacity: 2048})
	td := m.CreateTask(42, "p")
	ev := m.Event("sys_read", ktau.GroupSyscall)
	h := Open(procfs.New(m))
	allocs := func(spans int) float64 {
		fill := func() {
			for i := 0; i < spans; i++ {
				m.Entry(td, ev)
				e.c += 5
				m.Exit(td, ev)
			}
		}
		fill()
		if _, err := h.GetTrace(42); err != nil { // warm the scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			fill()
			d, err := h.GetTrace(42)
			if err != nil || len(d.Records) != 2*spans {
				t.Fatalf("GetTrace = %d records, %v; want %d", len(d.Records), err, 2*spans)
			}
		})
	}
	small, large := allocs(5), allocs(500)
	if large != small || small > 1 {
		t.Fatalf("GetTrace allocated %.1f times for 10 records and %.1f for 1000; want the same, at most 1", small, large)
	}
}
