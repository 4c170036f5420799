package procfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ktau/internal/ktau"
)

// refPacker, refPackProfiles and refPackTrace are the reference blob
// layout: the append-based packer /proc/ktau used before reads packed
// straight into the caller's buffer, when ProfileSize packed the whole blob
// to measure it and a trace read packed a copy of the ring.
type refPacker struct{ b []byte }

func (p *refPacker) u8(v uint8)    { p.b = append(p.b, v) }
func (p *refPacker) u16(v uint16)  { p.b = binary.LittleEndian.AppendUint16(p.b, v) }
func (p *refPacker) u32(v uint32)  { p.b = binary.LittleEndian.AppendUint32(p.b, v) }
func (p *refPacker) u64(v uint64)  { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *refPacker) i32(v int32)   { p.u32(uint32(v)) }
func (p *refPacker) i64(v int64)   { p.u64(uint64(v)) }
func (p *refPacker) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p *refPacker) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	p.u16(uint16(len(s)))
	p.b = append(p.b, s...)
}

func refPackProfiles(snaps []ktau.Snapshot) []byte {
	p := &refPacker{}
	p.u32(Magic)
	p.u32(Version)
	p.u32(uint32(len(snaps)))
	for _, s := range snaps {
		p.i64(int64(s.PID))
		p.str(s.Name)
		p.i64(s.TSC)
		p.i64(s.Created)
		p.i64(s.ExitedAt)
		if s.Exited {
			p.u8(1)
		} else {
			p.u8(0)
		}
		p.u64(s.TraceLost)
		p.u16(uint16(len(s.CounterNames)))
		for _, n := range s.CounterNames {
			p.str(n)
		}
		p.u32(uint32(len(s.Events)))
		p.u32(uint32(len(s.Atomics)))
		p.u32(uint32(len(s.Mapped)))
		for _, e := range s.Events {
			p.i32(int32(e.ID))
			p.u32(uint32(e.Group))
			p.u64(e.Calls)
			p.u64(e.Subrs)
			p.i64(e.Incl)
			p.i64(e.Excl)
			for ci := 0; ci < len(s.CounterNames); ci++ {
				p.i64(e.Ctr[ci])
			}
			p.str(e.Name)
		}
		for _, a := range s.Atomics {
			p.i32(int32(a.ID))
			p.u32(uint32(a.Group))
			p.u64(a.Count)
			p.f64(a.Sum)
			p.f64(a.Min)
			p.f64(a.Max)
			p.f64(a.Mean)
			p.f64(a.Std)
			p.str(a.Name)
		}
		for _, m := range s.Mapped {
			p.i32(m.Ctx)
			p.str(m.CtxName)
			p.i32(int32(m.Ev))
			p.str(m.EvName)
			p.u32(uint32(m.Group))
			p.u64(m.Calls)
			p.i64(m.Incl)
			p.i64(m.Excl)
		}
	}
	return p.b
}

func refPackTrace(td *ktau.TaskData) []byte {
	p := &refPacker{}
	p.u32(Magic)
	p.u32(Version)
	recs := td.Trace().Snapshot()
	p.i64(int64(td.PID))
	p.u64(td.Trace().Lost())
	p.u32(uint32(len(recs)))
	for _, r := range recs {
		p.i64(r.TSC)
		p.i32(int32(r.Ev))
		p.u8(uint8(r.Kind))
		p.i64(r.Val)
	}
	return p.b
}

type testCounters struct{ v [ktau.MaxCounters]int64 }

func (c *testCounters) Names() []string {
	return []string{"PAPI_TOT_INS", "PAPI_L2_TCM", "PAPI_FP_OPS"}
}
func (c *testCounters) Read(int) [ktau.MaxCounters]int64 { return c.v }

// sizeCase is one measurement whose every selector's size and read are
// compared against the reference packer.
type sizeCase struct {
	name string
	m    *ktau.Measurement
	pids []int // task pids to select one by one (exited ones included)
}

// sizeCases builds measurements covering every blob element: counters,
// atomics, mapped records, a name past the u16 length limit, an empty ring,
// a nil ring, a wrapped ring whose head is not at 0, and a retained exited
// task.
func sizeCases() []sizeCase {
	rich := func() sizeCase {
		e := &env{}
		m := ktau.NewMeasurement(e, ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll, Mapping: true,
			TraceCapacity: 5, RetainExited: true,
		})
		src := &testCounters{}
		m.SetCounterSource(src)
		sys := m.Event("sys_read", ktau.GroupSyscall)
		long := m.Event(strings.Repeat("tcp_recvmsg_", 0x10000/12+3), ktau.GroupTCP)
		pkt := m.Event("tcp_pkt_bytes", ktau.GroupTCP)
		ctx := m.RegisterContext("MPI_Recv()")

		// pid 10: counters, atomics and mapped data; 7 records into a ring of
		// 5, so it has wrapped and its head sits at 2.
		a := m.CreateTask(10, "lu.rank0")
		m.SetUserCtx(a, ctx)
		m.Entry(a, sys)
		src.v[0] += 900
		src.v[2] += 7
		e.c += 100
		m.Entry(a, long)
		src.v[1] += 3
		e.c += 400
		m.Exit(a, long)
		e.c += 50
		m.Exit(a, sys)
		m.Atomic(a, pkt, 1448)
		m.Atomic(a, pkt, 720)
		m.Atomic(a, pkt, 64)
		// pid 11: a task name past 0xffff bytes, one span, then exited and
		// retained.
		b := m.CreateTask(11, strings.Repeat("n", 0x10000+17))
		m.AddSpan(b, sys, 250)
		m.ExitTask(b)
		// pid 12: created, never active — an empty ring.
		m.CreateTask(12, "idle")
		return sizeCase{name: "rich", m: m, pids: []int{10, 11, 12}}
	}
	nilRing := func() sizeCase {
		e := &env{}
		m := ktau.NewMeasurement(e, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true})
		td := m.CreateTask(20, "untraced")
		ev := m.Event("schedule", ktau.GroupSched)
		m.Entry(td, ev)
		e.c += 30
		m.Exit(td, ev)
		return sizeCase{name: "nil ring", m: m, pids: []int{20}}
	}
	return []sizeCase{rich(), nilRing()}
}

// refSnapshots is what a profile selector addresses, built from the
// measurement's own API rather than through FS.
func refSnapshots(m *ktau.Measurement, pid int) []ktau.Snapshot {
	switch pid {
	case PIDKernelWide:
		return []ktau.Snapshot{m.KernelWide()}
	case PIDAll:
		var out []ktau.Snapshot
		for _, td := range m.AllTasks() {
			out = append(out, m.SnapshotTask(td))
		}
		return out
	}
	for _, td := range m.AllTasks() {
		if td.PID == pid {
			return []ktau.Snapshot{m.SnapshotTask(td)}
		}
	}
	return nil
}

func taskOf(m *ktau.Measurement, pid int) *ktau.TaskData {
	for _, td := range m.AllTasks() {
		if td.PID == pid {
			return td
		}
	}
	return nil
}

// opCounter records the fault-hook ops one call consults.
type opCounter map[string]int

func (c opCounter) hook(op string) error { c[op]++; return nil }

// expectOps fails unless exactly op was consulted, exactly once, since the
// last reset; then it resets.
func (c opCounter) expectOps(t *testing.T, what, op string) {
	t.Helper()
	if len(c) != 1 || c[op] != 1 {
		t.Errorf("%s consulted the fault hook %v, want %s exactly once", what, map[string]int(c), op)
	}
	clear(c)
}

// TestSizeMatchesReadEverySelector pins the two-call protocol's sizes to
// the reads they announce: for every selector of every case, ProfileSize
// and TraceSize equal the bytes the matching read writes, those bytes equal
// the reference packer's blob, a buffer one byte short is refused with the
// same size, and each call consults its fault-hook op exactly once.
func TestSizeMatchesReadEverySelector(t *testing.T) {
	for _, tc := range sizeCases() {
		ops := opCounter{}
		fs := New(tc.m)
		fs.SetFaultHook(ops.hook)
		selectors := append([]int{PIDKernelWide, PIDAll}, tc.pids...)
		for _, pid := range selectors {
			what := fmt.Sprintf("%s pid %d", tc.name, pid)

			want := refPackProfiles(refSnapshots(tc.m, pid))
			size, err := fs.ProfileSize(pid)
			ops.expectOps(t, what+" ProfileSize", "profile.size")
			if err != nil || size != len(want) {
				t.Fatalf("%s: ProfileSize = %d, %v; reference blob is %d bytes", what, size, err, len(want))
			}
			var short ErrShortBuffer
			if _, err := fs.ProfileRead(pid, make([]byte, size-1)); !errors.As(err, &short) || short.Needed != size {
				t.Fatalf("%s: ProfileRead into %d bytes = %v, want ErrShortBuffer{%d}", what, size-1, err, size)
			}
			ops.expectOps(t, what+" short ProfileRead", "profile.read")
			buf := bytes.Repeat([]byte{0xa5}, size+9)
			n, err := fs.ProfileRead(pid, buf)
			ops.expectOps(t, what+" ProfileRead", "profile.read")
			if err != nil || n != size || !bytes.Equal(buf[:n], want) {
				t.Fatalf("%s: ProfileRead = %d, %v; blob equal to reference: %v", what, n, err, bytes.Equal(buf[:n], want))
			}
			if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xa5}, 9)) {
				t.Fatalf("%s: ProfileRead wrote past the %d bytes it reported", what, n)
			}

			td := taskOf(tc.m, pid)
			tsize, err := fs.TraceSize(pid)
			ops.expectOps(t, what+" TraceSize", "trace.size")
			if td == nil {
				_, rerr := fs.TraceRead(pid, make([]byte, 64))
				ops.expectOps(t, what+" TraceRead", "trace.read")
				if !errors.Is(err, ErrNoSuchPID) || !errors.Is(rerr, ErrNoSuchPID) {
					t.Fatalf("%s: TraceSize/TraceRead = %v/%v, want ErrNoSuchPID from both", what, err, rerr)
				}
				continue
			}
			want = refPackTrace(td)
			if err != nil || tsize != len(want) {
				t.Fatalf("%s: TraceSize = %d, %v; reference blob is %d bytes", what, tsize, err, len(want))
			}
			if _, err := fs.TraceRead(pid, make([]byte, tsize-1)); !errors.As(err, &short) || short.Needed != tsize {
				t.Fatalf("%s: TraceRead into %d bytes = %v, want ErrShortBuffer{%d}", what, tsize-1, err, tsize)
			}
			ops.expectOps(t, what+" short TraceRead", "trace.read")
			if !bytes.Equal(refPackTrace(td), want) {
				t.Fatalf("%s: a refused TraceRead consumed records", what)
			}
			buf = bytes.Repeat([]byte{0xa5}, tsize+9)
			n, err = fs.TraceRead(pid, buf)
			ops.expectOps(t, what+" TraceRead", "trace.read")
			if err != nil || n != tsize || !bytes.Equal(buf[:n], want) {
				t.Fatalf("%s: TraceRead = %d, %v; blob equal to reference: %v", what, n, err, bytes.Equal(buf[:n], want))
			}
			if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xa5}, 9)) {
				t.Fatalf("%s: TraceRead wrote past the %d bytes it reported", what, n)
			}
			if td.Trace().Len() != 0 {
				t.Fatalf("%s: TraceRead left %d records in the ring", what, td.Trace().Len())
			}
			// The drained ring reads as an empty one with its loss count.
			if tsize, _ := fs.TraceSize(pid); tsize != len(refPackTrace(td)) {
				t.Fatalf("%s: drained TraceSize = %d, reference %d", what, tsize, len(refPackTrace(td)))
			}
			clear(ops)
		}
	}
}

// TestSizeCasesCoverTheirShapes guards the cases above against quietly
// losing what they exist to cover.
func TestSizeCasesCoverTheirShapes(t *testing.T) {
	cases := sizeCases()
	m := cases[0].m
	a, b := m.Task(10), taskOf(m, 11)
	snap := m.SnapshotTask(a)
	if len(snap.CounterNames) == 0 || len(snap.Atomics) == 0 || len(snap.Mapped) == 0 {
		t.Fatalf("rich pid 10 lacks counters, atomics or mapped data: %+v", snap)
	}
	long := false
	for _, e := range snap.Events {
		long = long || len(e.Name) > 0xffff
	}
	if !long || len(b.Name) <= 0xffff {
		t.Fatal("rich case lost its over-long event or task name")
	}
	if ra, rb := a.Trace().Parts(); len(ra) == 0 || len(rb) == 0 || a.Trace().Lost() == 0 {
		t.Fatalf("pid 10's ring has not wrapped: parts %d+%d, lost %d", len(ra), len(rb), a.Trace().Lost())
	}
	if !b.Exited || m.Task(11) != nil {
		t.Fatal("pid 11 is not a retained exited task")
	}
	if r := m.Task(12).Trace(); r == nil || r.Len() != 0 {
		t.Fatal("pid 12 does not have an empty ring")
	}
	if cases[1].m.Task(20).Trace() != nil {
		t.Fatal("nil-ring case has a ring")
	}
}

// TestTraceSizeAndReadAllocateNothing pins the trace read path: measuring
// a ring and packing it into a big-enough caller buffer allocate nothing,
// whatever the record count.
func TestTraceSizeAndReadAllocateNothing(t *testing.T) {
	e := &env{}
	m := ktau.NewMeasurement(e, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, TraceCapacity: 4096})
	fs := New(m)
	td := m.CreateTask(10, "p")
	ev := m.Event("sys_read", ktau.GroupSyscall)
	buf := make([]byte, traceSize(4096))
	for _, spans := range []int{0, 1, 1000} {
		allocs := testing.AllocsPerRun(50, func() {
			for i := 0; i < spans; i++ {
				m.Entry(td, ev)
				e.c += 5
				m.Exit(td, ev)
			}
			n, err := fs.TraceSize(10)
			if err != nil || n != traceSize(2*spans) {
				t.Fatalf("TraceSize = %d, %v; want %d", n, err, traceSize(2*spans))
			}
			if got, err := fs.TraceRead(10, buf); err != nil || got != n {
				t.Fatalf("TraceRead = %d, %v; want %d", got, err, n)
			}
		})
		if allocs != 0 {
			t.Errorf("%d spans: TraceSize+TraceRead allocated %.1f times, want 0", spans, allocs)
		}
	}
}

// TestAppendMatchesRead pins the exported packers to the reads: AppendTrace
// and AppendProfiles produce the bytes TraceRead and ProfileRead write,
// after whatever b already holds.
func TestAppendMatchesRead(t *testing.T) {
	m := sizeCases()[0].m
	fs := New(m)
	prefix := []byte("prefix")
	for _, pid := range []int{PIDKernelWide, PIDAll, 10, 11, 12} {
		snaps := refSnapshots(m, pid)
		got := AppendProfiles(append([]byte(nil), prefix...), snaps)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], refPackProfiles(snaps)) {
			t.Errorf("pid %d: AppendProfiles differs from the reference blob", pid)
		}
	}
	td := m.Task(10)
	want := refPackTrace(td)
	got := AppendTrace(append([]byte(nil), prefix...), td.PID, td.Trace().Lost(), td.Trace().Snapshot())
	buf := make([]byte, len(want))
	if _, err := fs.TraceRead(10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(buf, want) {
		t.Error("AppendTrace differs from TraceRead or the reference blob")
	}
}
