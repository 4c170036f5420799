package perfmon

import (
	"testing"

	"ktau/internal/ktau"
	"ktau/internal/libktau"
	"ktau/internal/procfs"
)

// TestAppendFrameZeroAllocsSteadyState pins the per-round frame encode at
// zero steady-state allocations when the caller reuses its buffer (the agent
// loop's pattern).
func TestAppendFrameZeroAllocsSteadyState(t *testing.T) {
	f := Frame{Node: "n3", NodeIdx: 3, Round: 17, CPUs: 2, FromTSC: 100, ToTSC: 900}
	for i := 0; i < 40; i++ {
		f.Kernel = append(f.Kernel, ktau.EventDelta{
			ID: ktau.EventID(i + 1), Name: "do_IRQ[timer]", Group: ktau.GroupIRQ,
			DCalls: 10, DIncl: 1000, DExcl: 900,
		})
	}
	for i := 0; i < 8; i++ {
		f.Procs = append(f.Procs, ProcDelta{PID: i, Name: "lu.A", DTotal: 123})
	}
	var buf []byte
	buf = AppendFrame(buf[:0], f) // warm to steady-state capacity

	allocs := testing.AllocsPerRun(500, func() {
		buf = AppendFrame(buf[:0], f)
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame allocated %.2f allocs/frame, want 0", allocs)
	}
}

type fakeEnv struct{ c int64 }

func (e *fakeEnv) Cycles() int64     { return e.c }
func (e *fakeEnv) AddOverhead(int64) {}

// fakeCounters advances two counters on every read.
type fakeCounters struct{ n int64 }

func (*fakeCounters) Names() []string { return []string{"PAPI_TOT_INS", "PAPI_L2_TCM"} }
func (c *fakeCounters) Read(int) [ktau.MaxCounters]int64 {
	c.n += 3
	return [ktau.MaxCounters]int64{c.n, 2 * c.n}
}

// collectionNode is one node's measurement, read by an agent the way kmond
// reads it: through procfs and a libktau handle. It has eight tasks with
// kernel events, performance counters, an atomic event and events mapped
// to user contexts, and one retained exited task.
type collectionNode struct {
	env   *fakeEnv
	m     *ktau.Measurement
	tasks []*ktau.TaskData
	evs   []ktau.EventID
	ctxs  []int32
	pkt   ktau.EventID
	h     *libktau.Handle
	a     *agentState
	buf   []byte
	round int
}

func newCollectionNode() *collectionNode {
	n := &collectionNode{env: &fakeEnv{}}
	n.m = ktau.NewMeasurement(n.env, ktau.Options{
		Compiled: ktau.GroupAll, Boot: ktau.GroupAll, Mapping: true, RetainExited: true,
	})
	n.m.SetCounterSource(&fakeCounters{})
	for _, name := range []string{"sys_read", "sys_write", "schedule", "tcp_sendmsg", "tcp_recvmsg", "do_softirq", TimerTickEvent} {
		n.evs = append(n.evs, n.m.Event(name, ktau.GroupSyscall))
	}
	n.pkt = n.m.Event("tcp_pkt_bytes", ktau.GroupTCP)
	for _, name := range []string{"MPI_Send()", "MPI_Recv()", "compute()"} {
		n.ctxs = append(n.ctxs, n.m.RegisterContext(name))
	}
	gone := n.m.CreateTask(99, "exited")
	n.m.AddSpan(gone, n.evs[0], 500)
	n.m.ExitTask(gone)
	for pid := 1; pid <= 8; pid++ {
		n.tasks = append(n.tasks, n.m.CreateTask(pid, "LU.rank"))
	}
	n.h = libktau.Open(procfs.New(n.m))
	n.a = newAgentState()
	return n
}

// collect advances the workload one interval, then runs one agent round:
// both /proc/ktau reads, the delta encode and the frame encode.
func (n *collectionNode) collect(tb testing.TB) {
	for i, td := range n.tasks {
		n.m.SetUserCtx(td, n.ctxs[i%len(n.ctxs)])
		for _, ev := range n.evs {
			n.m.Entry(td, ev)
			n.env.c += 10
			n.m.Exit(td, ev)
		}
		n.m.Atomic(td, n.pkt, 1500)
	}
	if err := n.a.read(n.h); err != nil {
		tb.Fatal(err)
	}
	f := n.a.buildFrame("node1", 1, n.round, 2, false, n.a.spareKW[0], n.a.spareProcs)
	n.buf = AppendFrame(n.buf[:0], f)
	n.round++
}

// TestCollectionRoundZeroAllocs pins a warmed agent round — the kernel-wide
// and all-process reads through procfs, their decode into the spare
// snapshot set, the delta encode and the frame encode — at zero
// allocations.
func TestCollectionRoundZeroAllocs(t *testing.T) {
	n := newCollectionNode()
	for i := 0; i < 3; i++ { // warm every reused buffer
		n.collect(t)
	}
	if f, err := DecodeFrame(n.buf); err != nil || len(f.Procs) != len(n.tasks) || len(f.Kernel) != len(n.evs) {
		t.Fatalf("round frame has %d procs and %d kernel events (%v), want %d and %d",
			len(f.Procs), len(f.Kernel), err, len(n.tasks), len(n.evs))
	}
	allocs := testing.AllocsPerRun(100, func() { n.collect(t) })
	if allocs != 0 {
		t.Fatalf("collection round allocated %.2f times, want 0", allocs)
	}
}

// BenchmarkCollectionRound times one warmed agent round (see
// TestCollectionRoundZeroAllocs).
func BenchmarkCollectionRound(b *testing.B) {
	n := newCollectionNode()
	for i := 0; i < 3; i++ {
		n.collect(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.collect(b)
	}
}

// TestDecodeIngestZeroAllocs pins the collector side of a round: decoding
// a frame from a known node into the sink's frame and ingesting it.
func TestDecodeIngestZeroAllocs(t *testing.T) {
	blob := EncodeFrame(sampleFrame())
	st := NewStore(StoreConfig{})
	var f Frame
	round := 0
	ingest := func() {
		if err := DecodeFrameInto(&f, blob); err != nil {
			t.Fatal(err)
		}
		f.Round, f.Last = round, false
		st.Ingest(f, len(blob))
		round++
	}
	ingest() // the first frame creates the node's series
	allocs := testing.AllocsPerRun(500, ingest)
	if allocs != 0 {
		t.Fatalf("decode + ingest allocated %.2f times per frame, want 0", allocs)
	}
	if st.Frames() != uint64(round) {
		t.Fatalf("store ingested %d frames, want %d", st.Frames(), round)
	}
}
