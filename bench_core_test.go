// Core hot-path benchmark harness: the allocation-free event engine, the
// KTAU per-round measurement path, the wire-frame encoders, and the
// end-to-end serial Chiba run. BenchmarkCoreHotPath re-measures each and
// writes BENCH_core.json comparing against the recorded pre-optimisation
// baseline (the seed implementation measured on the same class of host), so
// the speedup and allocation reductions are tracked in-repo.
//
//	go test -bench=BenchmarkCoreHotPath -benchtime=1x
//	go test -bench='BenchmarkEngineThroughput|BenchmarkKtauEventPath|BenchmarkFrameEncode' -benchmem
package ktau_test

import (
	"runtime"
	"testing"
	"time"

	"ktau/internal/experiments"
	iktau "ktau/internal/ktau"
	"ktau/internal/perfmon"
	"ktau/internal/sim"
	"ktau/internal/tracepipe"
)

// Pre-optimisation baseline, measured on the seed implementation before the
// pooled engine / ID-keyed snapshot work (Intel Xeon @ 2.10GHz, go1.24):
// the "before" column of BENCH_core.json.
const (
	baseEngineNsPerOp     = 61.24
	baseEngineAllocsPerOp = 1.0
	baseKtauNsPerOp       = 7255.0 // 40-event round + snapshot + delta
	baseKtauAllocsPerOp   = 16.0
	basePerfmonEncodeNs   = 2079.0
	basePerfmonEncodeAl   = 11.0
	baseTraceEncodeNs     = 10848.0
	baseTraceEncodeAl     = 17.0
	baseChibaWallS        = 2.070
	baseChibaAllocs       = 9.37e6
)

// BenchmarkEngineThroughput measures the pooled closure-free scheduling path:
// one AfterCall + Step per op against a warm free list.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	count := 0
	var fire func(any)
	fire = func(arg any) {
		c := arg.(*int)
		*c++
		if *c < b.N {
			eng.AfterCall(time.Microsecond, fire, arg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.AfterCall(time.Microsecond, fire, &count)
	eng.Run()
}

// BenchmarkKtauEventPath measures one full KTAUD-style collection round: 40
// instrumented entry/exit pairs, a snapshot into a reused buffer, and a delta
// against the previous round's reused buffer.
func BenchmarkKtauEventPath(b *testing.B) {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupAll})
	td := m.CreateTask(1, "bench")
	evs := make([]iktau.EventID, 40)
	for i := range evs {
		evs[i] = m.Event("event_"+string(rune('a'+i%26))+string(rune('0'+i/26)), iktau.GroupSyscall)
	}
	var prev, cur iktau.Snapshot
	var d iktau.SnapshotDelta
	m.SnapshotTaskInto(td, &prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range evs {
			m.Entry(td, ev)
			m.Exit(td, ev)
		}
		m.SnapshotTaskInto(td, &cur)
		iktau.DeltaSnapshotInto(prev, cur, &d)
		prev, cur = cur, prev
	}
}

func benchPerfmonEncode(b *testing.B) {
	f := perfmon.Frame{Node: "n3", NodeIdx: 3, Round: 17, CPUs: 2, FromTSC: 100, ToTSC: 900}
	for i := 0; i < 40; i++ {
		f.Kernel = append(f.Kernel, iktau.EventDelta{
			ID: iktau.EventID(i + 1), Name: "do_IRQ[timer]", Group: iktau.GroupIRQ,
			DCalls: 10, DIncl: 1000, DExcl: 900,
		})
	}
	for i := 0; i < 8; i++ {
		f.Procs = append(f.Procs, perfmon.ProcDelta{PID: i, Name: "lu.A", DTotal: 123})
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = perfmon.AppendFrame(buf[:0], f)
	}
}

func benchTraceEncode(b *testing.B) {
	f := tracepipe.Frame{Node: "n3", NodeIdx: 3, Round: 17}
	recs := make([]tracepipe.Rec, 0, 256)
	for i := 0; i < 256; i++ {
		recs = append(recs, tracepipe.Rec{TSC: int64(i), Name: "sys_read", Kind: iktau.KindEntry})
	}
	f.Streams = []tracepipe.Stream{{PID: 1, Task: "lu.A", Kernel: true, Recs: recs}}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tracepipe.AppendFrame(buf[:0], f)
	}
}

// BenchmarkFrameEncode measures both wire encoders in the agent-loop pattern
// (reused output buffer; the link queue pays the single copy-out alloc).
func BenchmarkFrameEncode(b *testing.B) {
	b.Run("perfmon", benchPerfmonEncode)
	b.Run("tracepipe", benchTraceEncode)
}

// runChiba32 runs the serial 32-node Chiba LU workload once and returns wall
// clock plus the allocation volume of the run.
func runChiba32(b *testing.B) (wall time.Duration, allocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	spec := experiments.DefaultChiba(32, 1)
	spec.Seed = 7
	res := experiments.RunChiba(spec)
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if !res.Completed {
		b.Fatal("chiba run did not complete")
	}
	return wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// reduction returns before/after as a JSON value; a measured zero (fully
// allocation-free) reports "inf", which plain JSON numbers cannot express.
func reduction(before, after float64) any {
	if after <= 0 {
		return "inf"
	}
	return before / after
}

// BenchmarkCoreChiba measures just the end-to-end serial run (wall clock and
// allocation volume as metrics).
func BenchmarkCoreChiba(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wall, allocs, _ := runChiba32(b)
		b.ReportMetric(wall.Seconds(), "wall-s")
		b.ReportMetric(float64(allocs), "allocs")
	}
}

// micro is one hand-rolled micro-measurement: ns/op from a timed loop,
// allocs/op from testing.AllocsPerRun. testing.Benchmark cannot be used here
// — calling it from inside a running benchmark deadlocks on the global
// benchmark lock — so the harness measures directly.
type micro struct {
	nsPerOp     float64
	allocsPerOp float64
}

func measureEngineMicro() micro {
	eng := sim.NewEngine()
	const n = 2_000_000
	count := 0
	var fire func(any)
	fire = func(arg any) {
		c := arg.(*int)
		*c++
		if *c < n {
			eng.AfterCall(time.Microsecond, fire, arg)
		}
	}
	t0 := time.Now()
	eng.AfterCall(time.Microsecond, fire, &count)
	eng.Run()
	ns := float64(time.Since(t0).Nanoseconds()) / n
	inc := func(arg any) { *(arg.(*int))++ }
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterCall(time.Microsecond, inc, &count)
		eng.Step()
	})
	return micro{nsPerOp: ns, allocsPerOp: allocs}
}

func measureKtauMicro() micro {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupAll})
	td := m.CreateTask(1, "bench")
	evs := make([]iktau.EventID, 40)
	for i := range evs {
		evs[i] = m.Event("event_"+string(rune('a'+i%26))+string(rune('0'+i/26)), iktau.GroupSyscall)
	}
	var prev, cur iktau.Snapshot
	var d iktau.SnapshotDelta
	m.SnapshotTaskInto(td, &prev)
	round := func() {
		for _, ev := range evs {
			m.Entry(td, ev)
			m.Exit(td, ev)
		}
		m.SnapshotTaskInto(td, &cur)
		iktau.DeltaSnapshotInto(prev, cur, &d)
		prev, cur = cur, prev
	}
	round() // warm buffers to steady state
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		round()
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	return micro{nsPerOp: ns, allocsPerOp: testing.AllocsPerRun(200, round)}
}

func measurePerfmonEncodeMicro() micro {
	f := perfmon.Frame{Node: "n3", NodeIdx: 3, Round: 17, CPUs: 2, FromTSC: 100, ToTSC: 900}
	for i := 0; i < 40; i++ {
		f.Kernel = append(f.Kernel, iktau.EventDelta{
			ID: iktau.EventID(i + 1), Name: "do_IRQ[timer]", Group: iktau.GroupIRQ,
			DCalls: 10, DIncl: 1000, DExcl: 900,
		})
	}
	for i := 0; i < 8; i++ {
		f.Procs = append(f.Procs, perfmon.ProcDelta{PID: i, Name: "lu.A", DTotal: 123})
	}
	var buf []byte
	buf = perfmon.AppendFrame(buf[:0], f)
	const n = 500_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = perfmon.AppendFrame(buf[:0], f)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	allocs := testing.AllocsPerRun(500, func() { buf = perfmon.AppendFrame(buf[:0], f) })
	return micro{nsPerOp: ns, allocsPerOp: allocs}
}

func measureTraceEncodeMicro() micro {
	f := tracepipe.Frame{Node: "n3", NodeIdx: 3, Round: 17}
	recs := make([]tracepipe.Rec, 0, 256)
	for i := 0; i < 256; i++ {
		recs = append(recs, tracepipe.Rec{TSC: int64(i), Name: "sys_read", Kind: iktau.KindEntry})
	}
	f.Streams = []tracepipe.Stream{{PID: 1, Task: "lu.A", Kernel: true, Recs: recs}}
	var buf []byte
	buf = tracepipe.AppendFrame(buf[:0], f)
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = tracepipe.AppendFrame(buf[:0], f)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	allocs := testing.AllocsPerRun(500, func() { buf = tracepipe.AppendFrame(buf[:0], f) })
	return micro{nsPerOp: ns, allocsPerOp: allocs}
}

// BenchmarkCoreHotPath re-measures every core hot path and writes the
// before/after comparison to BENCH_core.json. scripts/check.sh runs this and
// gates on the recorded Chiba speedup.
func BenchmarkCoreHotPath(b *testing.B) {
	runChiba32(b) // warm-up: page in code paths and allocator arenas
	var wall time.Duration
	var allocs uint64
	for i := 0; i < b.N; i++ {
		w1, a1, _ := runChiba32(b)
		w2, a2, _ := runChiba32(b)
		wall, allocs = w1, a1
		if w2 < wall {
			wall, allocs = w2, a2
		}
	}
	eng := measureEngineMicro()
	kt := measureKtauMicro()
	pe := measurePerfmonEncodeMicro()
	te := measureTraceEncodeMicro()

	speedup := baseChibaWallS / wall.Seconds()
	b.ReportMetric(speedup, "chiba-speedup-x")
	b.ReportMetric(eng.allocsPerOp, "engine-allocs/op")
	b.ReportMetric(kt.allocsPerOp, "ktau-allocs/op")

	cmp := func(beforeNs, beforeAl float64, m micro) map[string]any {
		return map[string]any{
			"before_ns_per_op":     beforeNs,
			"after_ns_per_op":      m.nsPerOp,
			"before_allocs_per_op": beforeAl,
			"after_allocs_per_op":  m.allocsPerOp,
			"speedup_x":            beforeNs / m.nsPerOp,
			"alloc_reduction_x":    reduction(beforeAl, m.allocsPerOp),
		}
	}
	out := map[string]any{
		"benchmark":       "core hot paths, seed baseline vs pooled allocation-free implementation",
		"note":            "alloc_reduction_x is the string \"inf\" when the after measurement is zero allocs/op",
		"host_cpus":       runtime.NumCPU(),
		"engine":          cmp(baseEngineNsPerOp, baseEngineAllocsPerOp, eng),
		"ktau_event_path": cmp(baseKtauNsPerOp, baseKtauAllocsPerOp, kt),
		"frame_encode": map[string]any{
			"perfmon":   cmp(basePerfmonEncodeNs, basePerfmonEncodeAl, pe),
			"tracepipe": cmp(baseTraceEncodeNs, baseTraceEncodeAl, te),
		},
		"chiba32_serial": map[string]any{
			"nodes":             32,
			"before_wall_s":     baseChibaWallS,
			"after_wall_s":      wall.Seconds(),
			"chiba_speedup_x":   speedup,
			"before_allocs":     baseChibaAllocs,
			"after_allocs":      float64(allocs),
			"alloc_reduction_x": reduction(baseChibaAllocs, float64(allocs)),
		},
	}
	writeBench(b, "BENCH_core.json", out)
}
