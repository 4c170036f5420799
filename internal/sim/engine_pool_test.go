package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestEngineStepZeroAllocsSteadyState gates the tentpole: once the pool has
// warmed up, a schedule-fire cycle through AtCall must not allocate.
func TestEngineStepZeroAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	var count int
	inc := func(arg any) { *(arg.(*int))++ }
	// Warm up the pool and the heap's backing array.
	for i := 0; i < 100; i++ {
		e.AfterCall(time.Microsecond, inc, &count)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterCall(time.Microsecond, inc, &count)
		if !e.Step() {
			t.Fatal("no event ran")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state post+step allocates %v/op, want 0", allocs)
	}
}

// TestEngineCancelZeroAllocs verifies Cancel itself never allocates, even
// with lazy deletion accumulating dead events.
func TestEngineCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	// Warm pool.
	for i := 0; i < 64; i++ {
		e.After(time.Microsecond, func() {})
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.AfterCall(time.Microsecond, func(any) {}, nil)
		e.Cancel(h)
		e.Step() // collect
	})
	if allocs != 0 {
		t.Errorf("post+cancel+collect allocates %v/op, want 0", allocs)
	}
}

// TestEngineHandleAfterRecycle pins the ABA protection: a handle to a fired
// event must stay inert (and report its outcome) after the slot is reused.
func TestEngineHandleAfterRecycle(t *testing.T) {
	e := NewEngine()
	h1 := e.After(time.Microsecond, func() {})
	if !h1.Pending() {
		t.Fatal("h1 not pending after schedule")
	}
	e.Run()
	if !h1.Fired() || h1.Canceled() || h1.Pending() {
		t.Fatalf("after fire: Fired=%v Canceled=%v Pending=%v", h1.Fired(), h1.Canceled(), h1.Pending())
	}
	// The pool now holds the slot; the next schedule reuses it.
	h2 := e.After(time.Microsecond, func() {})
	if h2.ev != h1.ev {
		t.Fatal("slot was not recycled (pool broken?)")
	}
	// Cancelling the stale handle must not touch the new occurrence.
	e.Cancel(h1)
	fired := false
	h3 := e.After(2*time.Microsecond, func() { fired = true })
	_ = h3
	e.Run()
	if !h2.Fired() {
		t.Error("recycled occurrence was cancelled by a stale handle")
	}
	if !fired {
		t.Error("later event did not fire")
	}

	// Cancelled handles report Canceled after collection (until the slot is
	// reused — outcome queries are only guaranteed up to recycling).
	h4 := e.After(time.Microsecond, func() { t.Error("cancelled event fired") })
	e.Cancel(h4)
	e.Run()
	if !h4.Canceled() || h4.Fired() {
		t.Errorf("after cancel+collect: Canceled=%v Fired=%v", h4.Canceled(), h4.Fired())
	}
	// A stale cancelled handle must never cancel the slot's next occupant.
	h5 := e.After(time.Microsecond, func() {})
	e.Cancel(h4)
	e.Run()
	if !h5.Fired() {
		t.Error("stale cancelled handle cancelled a recycled occurrence")
	}
}

// refSched is the reference scheduler for the property test: a list kept in
// (at, seq) order with eager deletion — the simplest correct implementation.
type refSched struct {
	now Time
	seq uint64
	evs []refEv
}

type refEv struct {
	at  Time
	seq uint64
	id  int
}

// post inserts after every event due at or before at: seq only grows, so
// that is the event's (at, seq) position.
func (r *refSched) post(at Time, id int) uint64 {
	r.seq++
	i := sort.Search(len(r.evs), func(i int) bool { return r.evs[i].at > at })
	r.evs = slices.Insert(r.evs, i, refEv{at: at, seq: r.seq, id: id})
	return r.seq
}

func (r *refSched) cancel(seq uint64) {
	r.evs = slices.DeleteFunc(r.evs, func(ev refEv) bool { return ev.seq == seq })
}

// step pops the earliest event and reports its id.
func (r *refSched) step() (int, bool) {
	if len(r.evs) == 0 {
		return 0, false
	}
	ev := r.evs[0]
	r.evs = r.evs[1:]
	r.now = ev.at
	return ev.id, true
}

// TestEngineCancelLazyDeletionProperty drives random interleavings of
// post/cancel/step through the pooled lazy-deletion engine and the reference
// scheduler and requires identical fired sequences, timestamps, and pending
// counts throughout. Fired callbacks post and cancel too, some in bursts that
// cross the compaction threshold in the middle of a Step. A growth phase
// takes the calendar past 1000 pending events, so sifts run through every
// level of the 4-ary heap; timestamps are drawn from a 50 µs range, so most
// of them tie and the seq tie-break decides the order.
func TestEngineCancelLazyDeletionProperty(t *testing.T) {
	const growOps, ops = 3000, 6000
	midStepCompactions := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refSched{}
		type live struct {
			h   Handle
			seq uint64
			id  int
		}
		var pending []live
		nextID, fired, peak, op := 0, -1, 0, 0
		var fire func(any)
		post := func() {
			id := nextID
			nextID++
			at := e.Now().Add(time.Duration(rng.Intn(50)) * time.Microsecond)
			pending = append(pending, live{e.AtCall(at, fire, id), ref.post(at, id), id})
		}
		remove := func(i int) {
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		cancel := func() {
			if len(pending) == 0 {
				return
			}
			i := rng.Intn(len(pending))
			e.Cancel(pending[i].h)
			ref.cancel(pending[i].seq)
			remove(i)
		}
		fire = func(arg any) {
			fired = arg.(int)
			var self Handle
			for i := range pending {
				if pending[i].id == fired {
					self = pending[i].h
					remove(i)
					break
				}
			}
			switch r := rng.Intn(10); {
			case r < 3:
				post()
			case r < 5:
				post()
				post()
			case r < 7:
				cancel()
			case r < 8: // cancelling the running event is a no-op
				e.Cancel(self)
			case r < 9 && op >= growOps:
				before := len(e.pq)
				for n := rng.Intn(len(pending) + 1); n > 0; n-- {
					cancel()
				}
				if len(e.pq) < before {
					midStepCompactions++
				}
			}
		}
		step := func() bool {
			want, ok := ref.step()
			fired = -1
			if got := e.Step(); got != ok {
				t.Fatalf("seed %d op %d: Step()=%v ref=%v", seed, op, got, ok)
			}
			if ok && (fired != want || e.Now() != ref.now) {
				t.Fatalf("seed %d op %d: fired %d at %v, ref %d at %v", seed, op, fired, e.Now(), want, ref.now)
			}
			return ok
		}
		for ; op < ops; op++ {
			posts := 5
			if op < growOps {
				posts = 7
			}
			switch r := rng.Intn(10); {
			case r < posts:
				post()
			case r < 8:
				cancel()
			default:
				step()
			}
			if e.Pending() != len(ref.evs) {
				t.Fatalf("seed %d op %d: Pending()=%d ref=%d", seed, op, e.Pending(), len(ref.evs))
			}
			peak = max(peak, e.Pending())
		}
		for step() {
		}
		if peak <= 1000 {
			t.Fatalf("seed %d: calendar peaked at %d pending events, want > 1000", seed, peak)
		}
	}
	if midStepCompactions == 0 {
		t.Fatal("no callback's cancels crossed the compaction threshold")
	}
}

// TestEngineCompactionKeepsOrder forces heavy cancellation (beyond the
// compaction threshold) and checks survivors still fire in (at, seq) order.
func TestEngineCompactionKeepsOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	var hs []Handle
	for i := 0; i < 500; i++ {
		i := i
		hs = append(hs, e.At(Time(int64(500-i)), func() { got = append(got, i) }))
	}
	// Cancel 400 of 500 — well past dead>64 && dead*2>len(pq).
	for i := 0; i < 500; i++ {
		if i%5 != 0 {
			e.Cancel(hs[i])
		}
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d, want 100", len(got))
	}
	// Scheduled at Time(500-i), so survivors must come out in descending i.
	for j := 1; j < len(got); j++ {
		if got[j] >= got[j-1] {
			t.Fatalf("out of order after compaction: %d then %d", got[j-1], got[j])
		}
	}
}

// TestEngineCompactionOfEveryEvent cancels every pending event for a range
// of calendar sizes, so for some of them the cancel that triggers compaction
// is the last one and leaves an empty calendar; the engine must stay usable.
func TestEngineCompactionOfEveryEvent(t *testing.T) {
	e := NewEngine()
	for n := 1; n <= 200; n++ {
		var hs []Handle
		for i := 0; i < n; i++ {
			hs = append(hs, e.At(e.Now()+Time(i), func() { t.Error("cancelled event fired") }))
		}
		for _, h := range hs {
			e.Cancel(h)
		}
		if e.Pending() != 0 {
			t.Fatalf("n=%d: Pending()=%d after cancelling all", n, e.Pending())
		}
		fired := false
		at := e.Now() + Time(n)
		e.At(at, func() { fired = true })
		e.Run()
		if !fired || e.Now() != at {
			t.Fatalf("n=%d: event after compaction: fired=%v now=%v, want %v", n, fired, e.Now(), at)
		}
	}
}

// BenchmarkCalendarHold measures the calendar under the classic hold model:
// each op pops the earliest event, whose callback posts one at a random
// later time, so the calendar stays at a fixed depth. (The root package's
// BenchmarkEngineThroughput keeps a single event pending and so never
// sifts.) The steady state reuses pooled slots and must not allocate.
func BenchmarkCalendarHold(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			rng := NewRNG(1)
			var hold func(any)
			hold = func(any) {
				e.AfterCall(time.Duration(1+rng.Intn(1000))*time.Microsecond, hold, nil)
			}
			for i := 0; i < depth; i++ {
				hold(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
