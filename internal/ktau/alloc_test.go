package ktau

import "testing"

// The KTAU hot path — the instrumentation probes every kernel event fires —
// must not allocate: in the real kernel an allocation inside the probe would
// perturb exactly what is being measured. These tests pin the steady-state
// allocation behaviour with testing.AllocsPerRun.

func TestEntryExitZeroAllocs(t *testing.T) {
	m, env := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("sys_read", GroupSyscall)

	// Warm once so the per-task tables are grown.
	m.Entry(td, ev)
	env.advance(10)
	m.Exit(td, ev)

	allocs := testing.AllocsPerRun(1000, func() {
		m.Entry(td, ev)
		env.advance(10)
		m.Exit(td, ev)
	})
	if allocs != 0 {
		t.Fatalf("Entry/Exit allocated %.2f allocs/op, want 0", allocs)
	}
}

func TestAtomicZeroAllocs(t *testing.T) {
	m, _ := newTestM(Options{})
	td := m.CreateTask(1, "p")
	ev := m.Event("tcp_pkt_size", GroupTCP)

	m.Atomic(td, ev, 1500)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Atomic(td, ev, 1500)
	})
	if allocs != 0 {
		t.Fatalf("Atomic allocated %.2f allocs/op, want 0", allocs)
	}
}

// TestSnapshotDeltaRoundZeroAllocs pins the whole per-round collection step —
// instrument 40 events under four user contexts, take a snapshot (mapped
// records included) into a reused buffer, delta it against the previous
// round's reused buffer — at zero steady-state allocations, the KTAUD agent
// loop's ideal.
func TestSnapshotDeltaRoundZeroAllocs(t *testing.T) {
	m, env := newTestM(Options{Mapping: true})
	td := m.CreateTask(1, "p")
	evs := make([]EventID, 40)
	for i := range evs {
		evs[i] = m.Event("event_"+string(rune('a'+i%26))+string(rune('0'+i/26)), GroupSyscall)
	}
	var ctxs [4]int32
	for i := range ctxs {
		ctxs[i] = m.RegisterContext("routine_" + string(rune('a'+i)))
	}

	var prev, cur Snapshot
	var d SnapshotDelta
	round := func() {
		for i, ev := range evs {
			m.SetUserCtx(td, ctxs[i%len(ctxs)])
			m.Entry(td, ev)
			env.advance(10)
			m.Exit(td, ev)
		}
		m.SnapshotTaskInto(td, &cur)
		DeltaSnapshotInto(prev, cur, &d)
		prev, cur = cur, prev
	}
	// Warm twice so every reused buffer reaches its steady-state capacity.
	round()
	round()
	if len(cur.Mapped) != len(evs) {
		t.Fatalf("snapshot holds %d mapped records, want %d", len(cur.Mapped), len(evs))
	}

	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Fatalf("snapshot+delta round allocated %.2f allocs/op, want 0", allocs)
	}
}

// TestKernelWideIntoZeroAllocs pins the kernel-wide aggregation (dense
// ID-indexed scratch tables) at zero steady-state allocations.
func TestKernelWideIntoZeroAllocs(t *testing.T) {
	m, env := newTestM(Options{})
	for pid := 1; pid <= 4; pid++ {
		td := m.CreateTask(pid, "p")
		ev := m.Event("sys_read", GroupSyscall)
		m.Entry(td, ev)
		env.advance(10)
		m.Exit(td, ev)
	}
	var s Snapshot
	m.KernelWideInto(&s)

	allocs := testing.AllocsPerRun(500, func() {
		m.KernelWideInto(&s)
	})
	if allocs != 0 {
		t.Fatalf("KernelWideInto allocated %.2f allocs/op, want 0", allocs)
	}
}
