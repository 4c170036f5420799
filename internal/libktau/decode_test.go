package libktau

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// richProfiles is a profile blob richer than any seed: exited tasks with
// lost trace records, every counter, atomics, mapped records and long
// names. Decoding it first leaves every field of the storage dirty.
func richProfiles() []byte {
	long := strings.Repeat("stale_", 40)
	ctrs := make([]string, ktau.MaxCounters)
	for i := range ctrs {
		ctrs[i] = long + "ctr"
	}
	var all [ktau.MaxCounters]int64
	for i := range all {
		all[i] = int64(1000 + i)
	}
	snaps := make([]ktau.Snapshot, 6)
	for i := range snaps {
		s := &snaps[i]
		*s = ktau.Snapshot{PID: 100 + i, Name: long, TSC: 9e9, Created: 7, ExitedAt: 8e9,
			Exited: true, TraceLost: 77, CounterNames: ctrs}
		for id := 1; id <= 12; id++ {
			s.Events = append(s.Events, ktau.EventSnap{ID: ktau.EventID(id), Name: long,
				Group: ktau.GroupAll, Calls: 5, Subrs: 6, Incl: 70, Excl: 60, Ctr: all})
			s.Atomics = append(s.Atomics, ktau.AtomicSnap{ID: ktau.EventID(id), Name: long,
				Group: ktau.GroupTCP, Count: 3, Sum: 4, Min: 1, Max: 2, Mean: 1.5, Std: 0.5})
			s.Mapped = append(s.Mapped, ktau.MappedSnap{Ctx: int32(id), CtxName: long,
				Ev: ktau.EventID(id), EvName: long, Group: ktau.GroupSched, Calls: 9, Incl: 8, Excl: 7})
		}
	}
	return procfs.AppendProfiles(nil, snaps)
}

// normSnaps copies snaps with every empty slice made nil, so decodes into
// fresh and reused storage print alike.
func normSnaps(snaps []ktau.Snapshot) []ktau.Snapshot {
	if len(snaps) == 0 {
		return nil
	}
	out := append([]ktau.Snapshot(nil), snaps...)
	for i := range out {
		s := &out[i]
		if len(s.CounterNames) == 0 {
			s.CounterNames = nil
		}
		if len(s.Events) == 0 {
			s.Events = nil
		}
		if len(s.Atomics) == 0 {
			s.Atomics = nil
		}
		if len(s.Mapped) == 0 {
			s.Mapped = nil
		}
	}
	return out
}

// FuzzDecodeProfiles: DecodeProfiles never panics, and anything it decodes
// re-packs through procfs to the same bytes. Decoding into storage dirtied
// by a richer decode gives the same result as decoding into fresh storage.
func FuzzDecodeProfiles(f *testing.F) {
	profiles, _ := realBlobs(f)
	for _, b := range profiles {
		for n := 0; n <= len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Add(hugeProfileCount())
	f.Add(hugeTraceCount())
	rich := richProfiles()
	f.Fuzz(func(t *testing.T, b []byte) {
		snaps, err := DecodeProfiles(b)
		dirty, errRich := DecodeProfilesInto(nil, rich)
		if errRich != nil {
			t.Fatalf("rich blob: %v", errRich)
		}
		reused, errReused := DecodeProfilesInto(dirty, b)
		if (err == nil) != (errReused == nil) {
			t.Fatalf("fresh decode: %v; decode into reused storage: %v", err, errReused)
		}
		if err != nil {
			return
		}
		// Compared as Go syntax rather than with reflect.DeepEqual, for which
		// a decoded NaN statistic never equals itself.
		if got, want := fmt.Sprintf("%#v", normSnaps(reused)), fmt.Sprintf("%#v", normSnaps(snaps)); got != want {
			t.Fatalf("decode into reused storage differs:\n got %s\nwant %s", got, want)
		}
		if again := procfs.AppendProfiles(nil, snaps); !bytes.Equal(again, b) {
			t.Fatalf("decoded blob re-packs differently:\n in: %x\nout: %x", b, again)
		}
	})
}

// richTrace returns a valid trace blob of more records than any seed, with
// every field of every record set, to dirty the storage a decode reuses.
func richTrace() []byte {
	recs := make([]ktau.Record, 300)
	for i := range recs {
		recs[i] = ktau.Record{TSC: 9e9 + int64(i), Ev: ktau.EventID(i + 1), Kind: ktau.KindAtomic, Val: -7 - int64(i)}
	}
	return procfs.AppendTrace(nil, 99, 12345, recs)
}

// FuzzDecodeTrace: DecodeTrace never panics, and anything it decodes
// re-packs through procfs to the same bytes. Decoding into storage dirtied
// by a longer decode gives the same result as decoding into fresh storage.
func FuzzDecodeTrace(f *testing.F) {
	_, traces := realBlobs(f)
	for _, b := range traces {
		for n := 0; n <= len(b); n++ {
			f.Add(b[:n])
		}
	}
	f.Add(hugeProfileCount())
	f.Add(hugeTraceCount())
	rich := richTrace()
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeTrace(b)
		dirty, errRich := DecodeTraceInto(nil, rich)
		if errRich != nil {
			t.Fatalf("rich blob: %v", errRich)
		}
		reused, errReused := DecodeTraceInto(dirty.Records, b)
		if (err == nil) != (errReused == nil) {
			t.Fatalf("fresh decode: %v; decode into reused storage: %v", err, errReused)
		}
		if err != nil {
			if len(reused.Records) != 0 || reused.PID != 0 || reused.Lost != 0 {
				t.Fatalf("failed decode into reused storage returned %+v", reused)
			}
			return
		}
		if reused.PID != d.PID || reused.Lost != d.Lost || !slices.Equal(reused.Records, d.Records) {
			t.Fatalf("decode into reused storage differs:\n got %+v\nwant %+v", reused, d)
		}
		if again := procfs.AppendTrace(nil, d.PID, d.Lost, d.Records); !bytes.Equal(again, b) {
			t.Fatalf("decoded blob re-packs differently:\n in: %x\nout: %x", b, again)
		}
	})
}

// TestGetTraceIntoAllocatesNothing pins a warmed drain loop: a Handle that
// passes each result's Records back in reads a 1000-record ring without
// allocating.
func TestGetTraceIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	e := &env{}
	m := ktau.NewMeasurement(e, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, TraceCapacity: 2048})
	td := m.CreateTask(42, "p")
	ev := m.Event("sys_read", ktau.GroupSyscall)
	h := Open(procfs.New(m))
	var scratch []ktau.Record
	drain := func() {
		for i := 0; i < 500; i++ {
			m.Entry(td, ev)
			e.c += 5
			m.Exit(td, ev)
		}
		d, err := h.GetTraceInto(scratch, 42)
		if err != nil || len(d.Records) != 1000 || d.PID != 42 {
			t.Fatalf("GetTraceInto = pid %d, %d records, %v; want pid 42, 1000 records", d.PID, len(d.Records), err)
		}
		scratch = d.Records[:0]
	}
	drain() // warm the handle's blob and the record scratch
	if allocs := testing.AllocsPerRun(50, drain); allocs != 0 {
		t.Fatalf("warmed GetTraceInto of 1000 records allocated %.1f times, want 0", allocs)
	}
}

// TestGetTraceAllocsIndependentOfRecords pins a warmed Handle's trace read:
// the blob lands in the handle's scratch and the records are decoded into
// one sized slice, so 10 and 1000 records cost the same allocations.
func TestGetTraceAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
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
