package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// pingPongTrace drives four engines that both tick locally and relay a
// message around the ring via cross-engine posts, and returns a per-engine
// execution log. Logs are kept per engine (each engine runs sequentially) and
// concatenated in index order, so the result is a worker-interleaving-free
// fingerprint of the schedule.
func pingPongTrace(workers int) string {
	const n = 4
	engines := make([]*Engine, n)
	logs := make([][]string, n)
	for i := range engines {
		engines[i] = NewEngine()
	}
	r := NewRunner(engines, time.Millisecond, workers)
	var hop func(src, hopCount int)
	hop = func(src, hopCount int) {
		dst := (src + 1) % n
		at := engines[src].Now().Add(r.Lookahead())
		r.Post(src, dst, at, func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("hop %d from %d at %v", hopCount, src, engines[dst].Now()))
			if hopCount < 20 {
				hop(dst, hopCount+1)
			}
		})
	}
	for i := range engines {
		i := i
		engines[i].At(0, func() {
			logs[i] = append(logs[i], "start")
			hop(i, 0)
		})
		ticks := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("tick %d at %v", ticks, engines[i].Now()))
			ticks++
			if ticks < 30 {
				engines[i].After(700*time.Microsecond, tick)
			}
		}
		engines[i].After(300*time.Microsecond, tick)
	}
	r.RunUntil(Time(int64(50 * time.Millisecond)))
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "engine %d (now %v):\n%s\n", i, engines[i].Now(), strings.Join(l, "\n"))
	}
	return b.String()
}

func TestRunnerSerialParallelIdentical(t *testing.T) {
	serial := pingPongTrace(1)
	for _, workers := range []int{2, 4} {
		if got := pingPongTrace(workers); got != serial {
			t.Fatalf("workers=%d schedule differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

func TestRunnerClosedFinalWindow(t *testing.T) {
	// The last window is closed: an event exactly at the RunUntil limit
	// fires. This is the cluster deadline-boundary fix at runner level.
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 2)
	limit := Time(int64(5 * time.Millisecond))
	fired := false
	engines[1].At(limit, func() { fired = true })
	r.RunUntil(limit)
	if !fired {
		t.Error("event exactly at the RunUntil limit did not fire")
	}
	if r.Now() != limit {
		t.Errorf("runner now = %v, want %v", r.Now(), limit)
	}
}

func TestRunnerDrainedCalendarAdvancesClocks(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	engines[0].After(time.Millisecond, func() {})
	target := Time(int64(20 * time.Millisecond))
	r.RunUntil(target)
	if r.Now() != target {
		t.Errorf("runner now = %v, want %v", r.Now(), target)
	}
	for i, e := range engines {
		if e.Now() != target {
			t.Errorf("engine %d clock = %v, want %v", i, e.Now(), target)
		}
	}
}

func TestRunnerLookaheadViolationPanics(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	engines[0].At(0, func() {
		// Posting inside the current window is a lookahead violation: the
		// destination may already be past this instant.
		r.Post(0, 1, engines[0].Now(), func() {})
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(v), "lookahead") {
			t.Fatalf("panic %v, want lookahead violation", v)
		}
	}()
	r.RunUntil(Time(int64(time.Millisecond)))
}

func TestRunnerPanicLowestEngineWins(t *testing.T) {
	// Two engines panic in the same window; the lowest-indexed one must
	// surface regardless of worker count.
	for _, workers := range []int{1, 2, 4} {
		engines := make([]*Engine, 4)
		for i := range engines {
			engines[i] = NewEngine()
		}
		r := NewRunner(engines, time.Millisecond, workers)
		engines[3].At(Time(10), func() { panic("engine 3 boom") })
		engines[1].At(Time(20), func() { panic("engine 1 boom") })
		got := func() (v any) {
			defer func() { v = recover() }()
			r.RunUntil(Time(int64(time.Millisecond)))
			return nil
		}()
		if fmt.Sprint(got) != "engine 1 boom" {
			t.Fatalf("workers=%d: surfaced panic %v, want engine 1's", workers, got)
		}
	}
}

func TestRunnerBarrierHooksRunPerWindow(t *testing.T) {
	engines := []*Engine{NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	hooks := 0
	r.OnBarrier(func() { hooks++ })
	steps := 0
	var tick func()
	tick = func() {
		steps++
		if steps < 5 {
			engines[0].After(time.Millisecond, tick)
		}
	}
	engines[0].After(0, tick)
	r.RunUntil(Time(int64(10 * time.Millisecond)))
	if hooks == 0 {
		t.Fatal("barrier hooks never ran")
	}
	// One hook firing per completed window plus the drain fast-forward.
	if hooks < 5 {
		t.Errorf("hooks ran %d times for %d windows", hooks, steps)
	}
}

func TestRunnerPostFromOutsideWindow(t *testing.T) {
	// Posts while no window is running (boot time) are legal at any time >=
	// the runner clock and are delivered by the next Step.
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	fired := false
	r.Post(0, 1, Time(10), func() { fired = true })
	r.RunUntil(Time(int64(time.Millisecond)))
	if !fired {
		t.Error("boot-time post was not delivered")
	}
}

// TestPostCallStepAllocatesNothing pins the closure-free cross-engine post:
// once the inbox, the group buffers and the engines' pools have reached
// their working size, PostCall with a static callback and a pointer
// argument, followed by the Step that delivers and fires it, allocates
// nothing.
func TestPostCallStepAllocatesNothing(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	fired := 0
	count := func(arg any) { *arg.(*int)++ }
	cycle := func() {
		r.PostCall(0, 1, r.Now().Add(r.Lookahead()), count, &fired)
		if !r.Step(r.Now().Add(time.Second)) {
			t.Fatal("Step found nothing to run")
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("PostCall+Step allocates %v/op, want 0", allocs)
	}
	if fired != 10+101 {
		t.Errorf("fired %d posts, want %d", fired, 10+101)
	}
}

// TestPostAndPostCallMergeInOneOrder: Post is PostCall with the func in the
// argument slot, so posts of both forms at one instant merge into the single
// (at, src, seq) order, and every drained buffer releases what it carried.
func TestPostAndPostCallMergeInOneOrder(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	var got []string
	logArg := func(arg any) { got = append(got, *arg.(*string)) }
	at := Time(int64(2 * time.Millisecond))
	names := []string{"2a", "0a", "2b", "1a", "0b"}
	srcs := []int{2, 0, 2, 1, 0}
	for i, name := range names {
		if i%2 == 0 {
			r.PostCall(srcs[i], 1, at, logArg, &names[i])
		} else {
			r.Post(srcs[i], 1, at, func() { got = append(got, name) })
		}
	}
	r.RunUntil(at.Add(time.Millisecond))
	if want := "0a 0b 1a 2a 2b"; strings.Join(got, " ") != want {
		t.Errorf("delivery order %q, want %q", strings.Join(got, " "), want)
	}
	for _, buf := range [][]xev{r.inbox, r.spare, r.groups[1].xbuf, r.groups[1].pend} {
		for _, x := range buf[:cap(buf)] {
			if x.fn != nil || x.arg != nil {
				t.Fatalf("drained buffer still holds a callback or argument: %+v", x)
			}
		}
	}
}
