package tau

import (
	"testing"
	"time"

	"ktau/internal/kernel"
)

// TestDrainTraceStreams pins the streaming contract the tracepipe agent
// relies on: DrainTrace delivers each record exactly once, the buffer
// refills cleanly after a drain, and TraceLost keeps accumulating across
// drains when the ring overflows.
func TestDrainTraceStreams(t *testing.T) {
	eng, k := tauRig(t)
	task := k.Spawn("app", func(u *kernel.UCtx) {
		p := New(u, Options{Enabled: true, TraceCapacity: 4})

		p.Timed("a", func() { u.Compute(time.Millisecond) })
		first := p.DrainTrace()
		if len(first) != 2 || first[0].Name != "a" || !first[0].Entry || first[1].Entry {
			t.Errorf("first drain = %+v, want a entry/exit pair", first)
		}
		if got := p.DrainTrace(); len(got) != 0 {
			t.Errorf("second drain redelivered %d records", len(got))
		}
		if p.TraceLost() != 0 {
			t.Errorf("lost = %d before any overflow", p.TraceLost())
		}

		// Overflow the capacity-4 ring: 3 pairs = 6 records, 2 lost.
		for _, name := range []string{"b", "c", "d"} {
			p.Timed(name, func() { u.Compute(time.Millisecond) })
		}
		batch := p.DrainTrace()
		if len(batch) != 4 {
			t.Errorf("overflow drain = %d records, want 4", len(batch))
		}
		if p.TraceLost() != 2 {
			t.Errorf("lost = %d after overflow, want 2", p.TraceLost())
		}

		// Lost stays cumulative across the next overflow cycle.
		for _, name := range []string{"e", "f", "g"} {
			p.Timed(name, func() { u.Compute(time.Millisecond) })
		}
		p.DrainTrace()
		if p.TraceLost() != 4 {
			t.Errorf("cumulative lost = %d, want 4", p.TraceLost())
		}
	}, kernel.SpawnOpts{})
	runTask(t, eng, task)
}

// TestDrainTraceZeroAllocs pins a warmed drain cycle at zero allocations:
// the profiler refills the buffer the previous drain returned, so a
// consumer draining every round costs no buffer growth. The returned slice
// holds the cycle's records until the next drain.
func TestDrainTraceZeroAllocs(t *testing.T) {
	eng, k := tauRig(t)
	task := k.Spawn("app", func(u *kernel.UCtx) {
		p := New(u, Options{Enabled: true, TraceCapacity: 64})
		cycle := func() {
			for i := 0; i < 8; i++ {
				p.Start("a")
				p.Stop("a")
			}
			if got := p.DrainTrace(); len(got) != 16 || got[0].Name != "a" || !got[0].Entry || got[15].Entry {
				t.Errorf("drain = %d records, want 8 entry/exit pairs of a", len(got))
			}
		}
		for i := 0; i < 3; i++ { // warm both buffers
			cycle()
		}
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("warmed trace drain cycle allocated %.2f times, want 0", allocs)
		}
	}, kernel.SpawnOpts{})
	runTask(t, eng, task)
}
