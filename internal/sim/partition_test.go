package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyMatrixPartition(t *testing.T) {
	t.Run("uniform is one group", func(t *testing.T) {
		m := NewLatencyMatrix(6, time.Millisecond)
		groups := m.Partition(CoupleFactor * m.Min())
		if len(groups) != 1 || len(groups[0]) != 6 {
			t.Fatalf("uniform matrix partitioned into %v, want one group of 6", groups)
		}
	})
	t.Run("two racks split", func(t *testing.T) {
		m := NewLatencyMatrix(8, time.Millisecond)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j && i/4 != j/4 {
					m.SetPair(i, j, 8*time.Millisecond)
				}
			}
		}
		if m.Min() != time.Millisecond {
			t.Fatalf("Min = %v, want 1ms", m.Min())
		}
		groups := m.Partition(CoupleFactor * m.Min())
		want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
		if fmt.Sprint(groups) != fmt.Sprint(want) {
			t.Fatalf("partition = %v, want %v", groups, want)
		}
	})
	t.Run("transitive coupling merges", func(t *testing.T) {
		// 0-1 fast, 1-2 fast, 0-2 slow: all three still share a group through
		// engine 1, and the group window is the fast pair latency.
		m := NewLatencyMatrix(3, 10*time.Millisecond)
		m.SetPair(0, 1, time.Millisecond)
		m.SetPair(1, 0, time.Millisecond)
		m.SetPair(1, 2, time.Millisecond)
		m.SetPair(2, 1, time.Millisecond)
		groups := m.Partition(CoupleFactor * m.Min())
		if len(groups) != 1 {
			t.Fatalf("partition = %v, want one group", groups)
		}
		if w := m.minWithin(groups[0]); w != time.Millisecond {
			t.Fatalf("minWithin = %v, want 1ms", w)
		}
	})
	t.Run("one-way fast link couples", func(t *testing.T) {
		m := NewLatencyMatrix(2, 10*time.Millisecond)
		m.SetPair(0, 1, time.Millisecond)
		if groups := m.Partition(CoupleFactor * time.Millisecond); len(groups) != 1 {
			t.Fatalf("partition = %v, want one group (coupling is direction-agnostic)", groups)
		}
	})
}

// rackedMatrix builds an n-engine matrix of racks of `rack` engines: 1ms
// within a rack, `inter` across racks.
func rackedMatrix(n, rack int, inter time.Duration) *LatencyMatrix {
	m := NewLatencyMatrix(n, time.Millisecond)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && i/rack != j/rack {
				m.SetPair(i, j, inter)
			}
		}
	}
	return m
}

// rackedPingPongTrace drives eight engines in two loosely-coupled racks.
// Traffic mixes intra-rack hops (pair lookahead 1ms), cross-rack hops (8ms),
// self-posts, and local ticks, and the per-engine logs are concatenated in
// index order — a worker-interleaving-free fingerprint of the schedule.
func rackedPingPongTrace(t *testing.T, workers int) string {
	t.Helper()
	const n = 8
	engines := make([]*Engine, n)
	logs := make([][]string, n)
	for i := range engines {
		engines[i] = NewEngine()
	}
	r := NewPartitionedRunner(engines, rackedMatrix(n, 4, 8*time.Millisecond), workers)
	if len(r.Groups()) != 2 {
		t.Fatalf("groups = %v, want 2 racks", r.Groups())
	}
	var hop func(src, stride, hopCount int)
	hop = func(src, stride, hopCount int) {
		dst := (src + stride) % n
		at := engines[src].Now().Add(r.PairLookahead(src, dst))
		r.Post(src, dst, at, func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("hop+%d %d from %d at %v", stride, hopCount, src, engines[dst].Now()))
			if hopCount < 16 {
				hop(dst, stride, hopCount+1)
			}
		})
	}
	for i := range engines {
		i := i
		engines[i].At(0, func() {
			logs[i] = append(logs[i], "start")
			hop(i, 1, 0) // mostly intra-rack, crosses at the rack boundary
			hop(i, 4, 0) // always cross-rack
		})
		ticks := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("tick %d at %v", ticks, engines[i].Now()))
			ticks++
			if ticks < 40 {
				engines[i].After(700*time.Microsecond, tick)
			}
		}
		engines[i].After(300*time.Microsecond, tick)
	}
	r.RunUntil(Time(int64(200 * time.Millisecond)))
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "engine %d (now %v):\n%s\n", i, engines[i].Now(), strings.Join(l, "\n"))
	}
	return b.String()
}

func TestPartitionedRunnerSerialParallelIdentical(t *testing.T) {
	serial := rackedPingPongTrace(t, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := rackedPingPongTrace(t, workers); got != serial {
			t.Fatalf("workers=%d schedule differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

func TestPartitionedRunnerClosedFinalEpoch(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = NewEngine()
	}
	r := NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 2)
	limit := Time(int64(5 * time.Millisecond))
	fired := false
	engines[3].At(limit, func() { fired = true })
	r.RunUntil(limit)
	if !fired {
		t.Error("event exactly at the RunUntil limit did not fire")
	}
	if r.Now() != limit {
		t.Errorf("runner now = %v, want %v", r.Now(), limit)
	}
	for i, e := range engines {
		if e.Now() != limit {
			t.Errorf("engine %d clock = %v, want %v", i, e.Now(), limit)
		}
	}
}

func TestPartitionedRunnerDrainedCalendarAdvancesClocks(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = NewEngine()
	}
	r := NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
	engines[0].After(time.Millisecond, func() {})
	target := Time(int64(40 * time.Millisecond))
	r.RunUntil(target)
	if r.Now() != target {
		t.Errorf("runner now = %v, want %v", r.Now(), target)
	}
	for i, e := range engines {
		if e.Now() != target {
			t.Errorf("engine %d clock = %v, want %v", i, e.Now(), target)
		}
	}
	// A post after the drain fast-forward is still legal and delivered.
	fired := false
	r.Post(0, 3, target.Add(time.Nanosecond), func() { fired = true })
	r.RunUntil(target.Add(time.Millisecond))
	if !fired {
		t.Error("post after drain was not delivered")
	}
}

func TestPartitionedRunnerPanicLowestEngineWins(t *testing.T) {
	// Engines in different groups panic in the same epoch; the lowest-indexed
	// one must surface regardless of worker count.
	for _, workers := range []int{1, 2, 4} {
		engines := make([]*Engine, 8)
		for i := range engines {
			engines[i] = NewEngine()
		}
		r := NewPartitionedRunner(engines, rackedMatrix(8, 4, 8*time.Millisecond), workers)
		engines[6].At(Time(10), func() { panic("engine 6 boom") })
		engines[2].At(Time(20), func() { panic("engine 2 boom") })
		got := func() (v any) {
			defer func() { v = recover() }()
			r.RunUntil(Time(int64(time.Millisecond)))
			return nil
		}()
		if fmt.Sprint(got) != "engine 2 boom" {
			t.Fatalf("workers=%d: surfaced panic %v, want engine 2's", workers, got)
		}
	}
}

func TestPartitionedRunnerHooksRunPerEpoch(t *testing.T) {
	// Barrier hooks run once per epoch rendezvous, not once per group window:
	// with an 8ms epoch and 1ms group windows, a 40ms run sees ~5 hook
	// firings, not ~40.
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = NewEngine()
	}
	r := NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
	hooks := 0
	r.OnBarrier(func() { hooks++ })
	var tick func()
	ticks := 0
	tick = func() {
		ticks++
		if ticks < 100 {
			engines[0].After(500*time.Microsecond, tick)
		}
	}
	engines[0].After(0, tick)
	r.RunUntil(Time(int64(40 * time.Millisecond)))
	if hooks < 5 || hooks > 8 {
		t.Errorf("hooks ran %d times over 5 epochs worth of time", hooks)
	}
	if r.EpochSpan() != 8*time.Millisecond {
		t.Errorf("EpochSpan = %v, want 8ms", r.EpochSpan())
	}
}

// TestRunnerPostBoundaries table-tests Post's legality boundary in both
// runner modes: exactly at the window/epoch end is legal, any earlier is a
// violation panic that names the pair lookahead, and quiescent-time posts
// are bounded only by the runner clock.
func TestRunnerPostBoundaries(t *testing.T) {
	uniform := func() *Runner {
		return NewRunner([]*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}, time.Millisecond, 1)
	}
	racked := func() *Runner {
		engines := make([]*Engine, 4)
		for i := range engines {
			engines[i] = NewEngine()
		}
		return NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
	}
	selfPost := func(r *Runner) {
		var firedAt Time = -1
		r.Engines()[0].At(0, func() {
			r.Post(0, 0, Time(1), func() { firedAt = r.Engines()[0].Now() })
		})
		r.RunUntil(Time(int64(20 * time.Millisecond)))
		if firedAt != Time(1) {
			panic(fmt.Sprintf("self-post fired at %v, want 1ns", firedAt))
		}
	}
	cases := []struct {
		name  string
		make  func() *Runner
		run   func(r *Runner)
		panic string // "" = must not panic; otherwise all listed substrings, comma-separated
	}{
		{
			name: "uniform post exactly at window end is legal",
			make: uniform,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
				if !fired {
					panic("window-end post was not delivered")
				}
			},
		},
		{
			name: "uniform post inside window names pair lookahead",
			make: uniform,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
			},
			panic: "lookahead,0->1,1ms",
		},
		{
			name: "uniform post during barrier before now panics",
			make: uniform,
			run: func(r *Runner) {
				r.OnBarrier(func() {
					if r.Now() > 0 {
						r.Post(0, 1, r.Now().Add(-1), func() {})
					}
				})
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
			},
			panic: "before now,0->1",
		},
		{
			name: "uniform post during barrier at now is legal",
			make: uniform,
			run: func(r *Runner) {
				posted := false
				r.OnBarrier(func() {
					if !posted && r.Now() > 0 {
						posted = true
						r.Post(0, 1, r.Now(), func() {})
					}
				})
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(4 * time.Millisecond)))
			},
		},
		{
			name: "uniform post after drain fast-forward before now panics",
			make: uniform,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(10 * time.Millisecond)))
				r.Post(0, 1, Time(int64(5*time.Millisecond)), func() {})
			},
			panic: "before now,0->1",
		},
		{
			name: "intra-group post exactly at group window end is legal",
			make: racked,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					// Group window is [0, 1ms): 1ms is the first legal instant.
					r.Post(0, 1, Time(int64(time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(20 * time.Millisecond)))
				if !fired {
					panic("group-window-end post was not delivered")
				}
			},
		},
		{
			name: "intra-group violation names pair and group window",
			make: racked,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(20 * time.Millisecond)))
			},
			panic: "lookahead,0->1,1ms,group 0",
		},
		{
			name: "cross-group post exactly at epoch end is legal",
			make: racked,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					// Epoch is [0, 8ms): 8ms is the first legal cross-group instant.
					r.Post(0, 2, Time(int64(8*time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(40 * time.Millisecond)))
				if !fired {
					panic("epoch-end post was not delivered")
				}
			},
		},
		{
			name: "cross-group violation names pair and epoch",
			make: racked,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 2, Time(int64(8*time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(40 * time.Millisecond)))
			},
			panic: "lookahead,0->2,8ms,epoch",
		},
		{
			name: "self-post mid-window is delivered to own calendar",
			make: racked,
			run:  selfPost,
		},
		{
			// A flat runner gives each engine its own group, so a self-post
			// mid-window lands on the engine's calendar at once, as on a
			// racked runner.
			name: "uniform self-post mid-window is delivered to own calendar",
			make: uniform,
			run:  selfPost,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.make()
			var got any
			func() {
				defer func() { got = recover() }()
				tc.run(r)
			}()
			if tc.panic == "" {
				if got != nil {
					t.Fatalf("unexpected panic: %v", got)
				}
				return
			}
			if got == nil {
				t.Fatalf("expected panic containing %q, got none", tc.panic)
			}
			msg := fmt.Sprint(got)
			for _, want := range strings.Split(tc.panic, ",") {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q does not mention %q", msg, want)
				}
			}
		})
	}
}

// TestRunnerMergeOrderProperty is the flush-comparator property test:
// concurrent sources posting in randomized real-time interleavings must
// always produce the same delivery order, because compareXev is a strict
// total order over (at, src, seq) and seq is assigned in source execution
// order. Each trial shuffles goroutine scheduling with random yields; the
// delivery log must match the first trial byte for byte.
func TestRunnerMergeOrderProperty(t *testing.T) {
	trial := func(seed int64) string {
		const sources = 6
		engines := make([]*Engine, sources+1)
		for i := range engines {
			engines[i] = NewEngine()
		}
		r := NewRunner(engines, time.Millisecond, 1)
		var log []string
		// Sources post from their own goroutines while the runner is
		// quiescent — the inbox append order is whatever the host scheduler
		// produces, but delivery order must not depend on it. Each source
		// posts a deterministic event stream with colliding timestamps.
		var wg sync.WaitGroup
		for src := 0; src < sources; src++ {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(src)))
				for k := 0; k < 50; k++ {
					at := Time(int64(time.Millisecond) + int64(k%7)*int64(100*time.Microsecond))
					src, k := src, k
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					}
					r.Post(src, sources, at, func() {
						log = append(log, fmt.Sprintf("src %d msg %d at %v", src, k, engines[sources].Now()))
					})
				}
			}(src)
		}
		wg.Wait()
		r.RunUntil(Time(int64(5 * time.Millisecond)))
		return strings.Join(log, "\n")
	}
	want := trial(1)
	for seed := int64(2); seed <= 12; seed++ {
		if got := trial(seed); got != want {
			t.Fatalf("seed %d delivery order differs:\n--- want ---\n%s\n--- got ---\n%s", seed, want, got)
		}
	}
}

// TestPartitionedRunnerStepZeroAllocsSteadyState extends the engine's pooled
// discipline to the epoch loop: once buffers are warm, epochs with steady
// intra-group and cross-group traffic (posted through pooled AtCall
// carriers, as netsim does) must not allocate. The flat row runs eight
// 1ms epochs per op over single-engine groups, where every hop is
// cross-group.
func TestPartitionedRunnerStepZeroAllocsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		matrix *LatencyMatrix
		groups int
	}{
		{"racked", rackedMatrix(4, 2, 8*time.Millisecond), 2},
		{"flat", NewLatencyMatrix(4, time.Millisecond), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engines := make([]*Engine, 4)
			for i := range engines {
				engines[i] = NewEngine()
			}
			r := NewPartitionedRunner(engines, tc.matrix, 1)
			if got := len(r.Groups()); got != tc.groups {
				t.Fatalf("runner has %d groups, want %d", got, tc.groups)
			}
			// Steady traffic: pre-built ping-pong closures relay between
			// engines 0<->1 (within rack 0 when racked) and 0<->2 (across
			// racks), re-arming from inside the callbacks. The closures are
			// built once at boot, so the steady state exercises only the
			// runner's own buffers.
			var pingAB, pingBA, pingXR, pingRX func()
			pingAB = func() { r.Post(1, 0, engines[1].Now().Add(r.PairLookahead(1, 0)), pingBA) }
			pingBA = func() { r.Post(0, 1, engines[0].Now().Add(r.PairLookahead(0, 1)), pingAB) }
			pingXR = func() { r.Post(2, 0, engines[2].Now().Add(r.PairLookahead(2, 0)), pingRX) }
			pingRX = func() { r.Post(0, 2, engines[0].Now().Add(r.PairLookahead(0, 2)), pingXR) }
			engines[0].At(Time(1), pingBA)
			engines[0].At(Time(2), pingRX)
			// Warm up buffers (inbox, pend, xbuf, engine pools, heap arrays).
			end := r.Now()
			for i := 0; i < 50; i++ {
				end = end.Add(8 * time.Millisecond)
				r.RunUntil(end)
			}
			allocs := testing.AllocsPerRun(100, func() {
				end = end.Add(8 * time.Millisecond)
				r.RunUntil(end)
			})
			if allocs != 0 {
				t.Errorf("steady-state epoch allocates %v/op, want 0", allocs)
			}
		})
	}
}
