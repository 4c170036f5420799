// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment at
// the paper's scale (128 ranks for the Chiba family), prints the same
// rows/series the paper reports (once), and reports headline numbers as
// benchmark metrics. Experiment runs are deterministic and memoised, so a
// full `go test -bench=. -benchmem` executes each heavy configuration once.
//
//	go test -bench=BenchmarkTable2 -benchtime=1x
//	go test -bench=. -benchmem 2>&1 | tee bench_output.txt
package ktau_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"ktau"
	"ktau/internal/experiments"
	iktau "ktau/internal/ktau"
	"ktau/internal/procfs"
)

// benchRanks is the Chiba-City scale of the paper's §5.2 experiments.
const benchRanks = 128

var onceFor sync.Map

// printOnce renders an experiment's output exactly once per process.
func printOnce(key string, render func()) {
	once, _ := onceFor.LoadOrStore(key, &sync.Once{})
	once.(*sync.Once).Do(render)
}

// ---- Tables ----

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunTable2(benchRanks, 1)
		printOnce("table2", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(res.Rows[1].LUDiffPct, "LU-anomaly-%")
		b.ReportMetric(res.Rows[4].LUDiffPct, "LU-pin-ibal-%")
		b.ReportMetric(res.Rows[1].SweepDiffPct, "Sw3D-anomaly-%")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunTable3(16, 5, 2)
		printOnce("table3", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		for _, row := range res.Rows {
			switch row.Mode {
			case experiments.InstrKtauOff:
				b.ReportMetric(row.AvgSlowPct, "KtauOff-%")
			case experiments.InstrProfAll:
				b.ReportMetric(row.AvgSlowPct, "ProfAll-%")
			case experiments.InstrProfAllTau:
				b.ReportMetric(row.AvgSlowPct, "ProfAllTau-%")
			}
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	// The modelled distribution (what the simulator injects) plus the real
	// cost of this implementation's own Entry/Exit fast path.
	res := ktau.RunTable4(100_000)
	res.GoImplStartCycles, res.GoImplStopCycles = measureGoFastPath()
	printOnce("table4", func() {
		fmt.Println()
		res.Render(os.Stdout)
	})
	b.ReportMetric(res.StartMean, "start-cycles")
	b.ReportMetric(res.StopMean, "stop-cycles")

	// Also drive the fast path under the benchmark loop for ns/op.
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupAll})
	td := m.CreateTask(1, "bench")
	ev := m.Event("bench_event", iktau.GroupSyscall)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Entry(td, ev)
		m.Exit(td, ev)
	}
}

// ---- Figures ----

func BenchmarkFig2A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig2AB(1)
		printOnce("fig2ab", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		var worst, rest float64
		for _, ns := range res.NodeSched {
			if ns.Node == res.DisturbedNode {
				worst = ns.Sched.Seconds()
			} else {
				rest += ns.Sched.Seconds() / float64(len(res.NodeSched)-1)
			}
		}
		b.ReportMetric(worst/rest, "disturbed/mean-sched-ratio")
	}
}

func BenchmarkFig2B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig2AB(1)
		var overhead float64
		for _, p := range res.Node8Procs {
			if p.Name == "overhead" {
				overhead = p.CPUTime.Seconds()
			}
		}
		b.ReportMetric(overhead, "overhead-proc-kernel-s")
	}
}

func BenchmarkFig2C(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig2C(1)
		printOnce("fig2c", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(res.Ranks[0].Invol.Seconds(), "LU0-invol-s")
		b.ReportMetric(res.Ranks[1].Vol.Seconds(), "LU1-vol-s")
	}
}

func BenchmarkFig2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig2AB(1)
		mr := res.Merged.Find("MPI_Recv()", false)
		if mr == nil {
			b.Fatal("no MPI_Recv in merged profile")
		}
		hz := float64(res.HZ)
		b.ReportMetric(float64(mr.UserOnlyExcl)/hz, "recv-user-only-s")
		b.ReportMetric(float64(mr.Excl)/hz, "recv-merged-s")
	}
}

func BenchmarkFig2E(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig2E(1)
		printOnce("fig2e", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(float64(len(res.Timeline)), "events-in-send-window")
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig3(benchRanks)
		printOnce("fig3", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(float64(res.Outliers[0]), "outlier-rank-lo")
		b.ReportMetric(float64(res.Outliers[1]), "outlier-rank-hi")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig4(benchRanks)
		printOnce("fig4", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(res.Mean["SCHED"].Seconds(), "mean-sched-under-recv-s")
		b.ReportMetric(res.LoVals["SCHED"].Seconds(), "rank61-sched-under-recv-s")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig5(benchRanks)
		printOnce("fig5", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		anom := res.Curves[res.Order[4]]
		b.ReportMetric(ktau.Quantile(anom, 0.5)/1e6, "anomaly-median-vol-s")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig6(benchRanks)
		printOnce("fig6", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		anom := res.Curves[res.Order[4]]
		max := 0.0
		for _, v := range anom {
			if v > max {
				max = v
			}
		}
		b.ReportMetric(max/1e6, "anomaly-max-invol-s")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig7(benchRanks)
		printOnce("fig7", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(res.Procs[0].CPUTime.Seconds(), "top-proc-cpu-s")
		b.ReportMetric(res.Procs[2].CPUTime.Seconds(), "third-proc-cpu-s")
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig8(benchRanks)
		printOnce("fig8", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		b.ReportMetric(res.Bimodal[res.Order[3]], "pinned-bimodality")
		b.ReportMetric(res.Bimodal[res.Order[1]], "ibal-bimodality")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig9(benchRanks)
		printOnce("fig9", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		base := ktau.Quantile(res.Curves[res.Order[0]], 0.5)
		dual := ktau.Quantile(res.Curves[res.Order[2]], 0.5)
		b.ReportMetric(dual/base, "dual/base-median-ratio")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ktau.RunFig10(benchRanks)
		printOnce("fig10", func() {
			fmt.Println()
			res.Render(os.Stdout)
		})
		base := ktau.Quantile(res.Curves[res.Order[0]], 0.5)
		dual := ktau.Quantile(res.Curves[res.Order[2]], 0.5)
		b.ReportMetric(100*(dual-base)/base, "percall-shift-%")
	}
}

// ---- ablation benches (design choices called out in DESIGN.md) ----

// benchEnv is a trivial ktau.Env for fast-path micro-benches.
type benchEnv struct{ c int64 }

func (e *benchEnv) Cycles() int64     { e.c += 7; return e.c }
func (e *benchEnv) AddOverhead(int64) {}

// measureGoFastPath times this implementation's own Entry/Exit pair and
// converts to 450 MHz cycles.
func measureGoFastPath() (startCyc, stopCyc float64) {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupAll})
	td := m.CreateTask(1, "x")
	ev := m.Event("x", iktau.GroupSyscall)
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Entry(td, ev)
		m.Exit(td, ev)
	}
	perPair := time.Since(t0).Seconds() / n
	cycles := perPair * 450e6 / 2 // split evenly between start and stop
	return cycles, cycles
}

// BenchmarkAblationDisabledProbe measures the "compiled in but disabled"
// fast path: the basis of the paper's Ktau Off claim.
func BenchmarkAblationDisabledProbe(b *testing.B) {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupNone})
	td := m.CreateTask(1, "x")
	ev := m.Event("x", iktau.GroupSyscall)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Entry(td, ev)
		m.Exit(td, ev)
	}
}

// BenchmarkAblationMappingOn / Off measure the cost of event mapping to
// user contexts on the instrumentation fast path.
func benchMapping(b *testing.B, mapping bool) {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{
		Compiled: iktau.GroupAll, Boot: iktau.GroupAll, Mapping: mapping,
	})
	td := m.CreateTask(1, "x")
	ev := m.Event("x", iktau.GroupTCP)
	ctx := m.RegisterContext("routine")
	m.SetUserCtx(td, ctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Entry(td, ev)
		m.Exit(td, ev)
	}
}

func BenchmarkAblationMappingOn(b *testing.B)  { benchMapping(b, true) }
func BenchmarkAblationMappingOff(b *testing.B) { benchMapping(b, false) }

// BenchmarkAblationTraceBuffer measures ring-buffer writes and reports the
// loss rate at a given capacity under a fixed write volume.
func BenchmarkAblationTraceBuffer(b *testing.B) {
	for _, capacity := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			r := iktau.NewRing(capacity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Put(iktau.Record{TSC: int64(i), Ev: 1, Kind: iktau.KindEntry})
			}
			b.StopTimer()
			if r.Total() > 0 {
				b.ReportMetric(float64(r.Lost())/float64(r.Total())*100, "lost-%")
			}
		})
	}
}

// BenchmarkAblationIrqPolicy compares interrupt routing policies end to end
// on a small dual-process workload.
func BenchmarkAblationIrqPolicy(b *testing.B) {
	for _, balance := range []bool{false, true} {
		name := "cpu0-only"
		if balance {
			name = "round-robin"
		}
		b.Run(name, func(b *testing.B) {
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				spec := ktau.DefaultChiba(16, 2)
				spec.Pinned = true
				spec.IRQBalance = balance
				res := experiments.Chiba(spec)
				exec = res.Exec
			}
			b.ReportMetric(exec.Seconds(), "virtual-exec-s")
		})
	}
}

// BenchmarkAblationProcfs measures the session-less two-call protocol
// (size query plus read) against the work of a single pre-sized read,
// quantifying the cost of the paper's no-state design choice.
func BenchmarkAblationProcfs(b *testing.B) {
	env := &benchEnv{}
	m := iktau.NewMeasurement(env, iktau.Options{Compiled: iktau.GroupAll, Boot: iktau.GroupAll})
	td := m.CreateTask(1, "x")
	for i := 0; i < 40; i++ {
		ev := m.Event(fmt.Sprintf("event_%d", i), iktau.GroupSyscall)
		m.Entry(td, ev)
		m.Exit(td, ev)
	}
	fs := procfs.New(m)
	b.Run("two-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			size, err := fs.ProfileSize(1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, size)
			if _, err := fs.ProfileRead(1, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("presized", func(b *testing.B) {
		size, _ := fs.ProfileSize(1)
		buf := make([]byte, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.ProfileRead(1, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimEngine measures raw event throughput of the DES engine.
func BenchmarkSimEngine(b *testing.B) {
	eng := ktau.NewEngine()
	var fire func()
	count := 0
	fire = func() {
		count++
		if count < b.N {
			eng.After(time.Microsecond, fire)
		}
	}
	b.ResetTimer()
	eng.After(time.Microsecond, fire)
	eng.Run()
}

// BenchmarkContextSwitch measures the simulator's cost of one full
// block/wake/context-switch cycle between two tasks.
func BenchmarkContextSwitch(b *testing.B) {
	c := ktau.NewCluster(ktau.ClusterConfig{
		Nodes:  ktau.UniformNodes("n", 1),
		Kernel: ktau.DefaultKernelParams(),
		Ktau:   ktau.MeasurementOptions{Compiled: ktau.GroupAll, Boot: ktau.GroupAll},
		Seed:   1,
	})
	defer c.Shutdown()
	k := c.Node(0).K
	wqA := ktau.NewWaitQueueNamed("a")
	wqB := ktau.NewWaitQueueNamed("b")
	turnA := true
	n := b.N
	ta := k.Spawn("a", func(u *ktau.UCtx) {
		for i := 0; i < n; i++ {
			u.Syscall("sys_read", func(kc *ktau.KCtx) {
				for !turnA {
					kc.Wait(wqA)
				}
				turnA = false
				wqB.WakeAll(u.Kernel())
			})
		}
	}, ktau.SpawnOpts{Kind: ktau.KindUser, Affinity: ktau.AffinityCPU(0)})
	tb := k.Spawn("b", func(u *ktau.UCtx) {
		for i := 0; i < n; i++ {
			u.Syscall("sys_read", func(kc *ktau.KCtx) {
				for turnA {
					kc.Wait(wqB)
				}
				turnA = true
				wqA.WakeAll(u.Kernel())
			})
		}
	}, ktau.SpawnOpts{Kind: ktau.KindUser, Affinity: ktau.AffinityCPU(0)})
	b.ResetTimer()
	c.RunUntilDone([]*ktau.Task{ta, tb}, time.Hour)
}

// BenchmarkAblationWorkloadSpectrum measures how the ProfAll instrumentation
// overhead depends on the workload's program-OS interaction rate: EP (almost
// no kernel interaction) through LU and Sweep3D (point-to-point wavefronts)
// to CG (collective-heavy). The paper's Table 3 measured only LU and
// Sweep3D; this sweep shows the overhead is a property of the interaction
// rate, not the tool.
func BenchmarkAblationWorkloadSpectrum(b *testing.B) {
	run := func(work string, instr experiments.InstrMode, seed uint64) time.Duration {
		const ranks = 16
		c := ktau.NewCluster(ktau.ClusterConfig{
			Nodes:  ktau.UniformNodes("n", ranks),
			Kernel: ktau.DefaultKernelParams(),
			Ktau:   instr.KtauOptions(),
			Seed:   seed,
		})
		defer c.Shutdown()
		specs := make([]ktau.RankSpec, ranks)
		for i := range specs {
			specs[i] = ktau.RankSpec{Stack: c.Node(i).Stack}
		}
		topts := ktau.DefaultTauOptions()
		topts.Enabled = instr.TauEnabled()
		w := ktau.NewWorld(specs, topts)
		var body func(*ktau.Rank)
		switch work {
		case "EP":
			cfg := ktau.DefaultEPConfig(ranks)
			cfg.Compute = 400 * time.Millisecond
			body = ktau.EP(cfg)
		case "CG":
			cfg := ktau.DefaultCGConfig(ranks)
			cfg.Iters = 2
			body = ktau.CG(cfg)
		case "Sweep3D":
			cfg := ktau.DefaultSweepConfig(ranks)
			cfg.Iters = 3
			body = ktau.Sweep3D(cfg)
		default:
			cfg := ktau.DefaultLUConfig(ranks)
			cfg.Iters = 4
			body = ktau.LU(cfg)
		}
		tasks := w.Launch(work, body)
		if !c.RunUntilDone(tasks, 20*time.Minute) {
			b.Fatalf("%s did not finish", work)
		}
		return c.Now().Duration()
	}
	for _, work := range []string{"EP", "LU", "Sweep3D", "CG"} {
		work := work
		b.Run(work, func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				var base, instr float64
				for rep := uint64(0); rep < 3; rep++ {
					base += run(work, experiments.InstrBase, 100+rep).Seconds()
					instr += run(work, experiments.InstrProfAllTau, 100+rep).Seconds()
				}
				slow = 100 * (instr - base) / base
			}
			b.ReportMetric(slow, "slowdown-%")
		})
	}
}

// benchRacks is the topology of the parallel worker sweep: 8 racks of 16
// nodes, so the partitioned runner splits the 128 engines into 8
// independently advancing synchronization groups.
const benchRacks = 8

// benchWorkerSweep is the workers axis of BenchmarkParallelChiba; the first
// entry must be 1 (the serial baseline every other row is compared to).
var benchWorkerSweep = []int{1, 2, 4, 8}

// BenchmarkParallelChiba sweeps the same racked 128-node Chiba LU
// configuration across runner worker counts — workers=1 serially, then each
// parallel worker count under GOMAXPROCS=min(workers, host CPUs) — checks
// every row's virtual results are byte-identical to the serial baseline, and
// writes one row per {workers, GOMAXPROCS} configuration to
// BENCH_parallel.json. On a near-single-core host every speedup is ~1x by
// construction; the JSON records host_cpus so the bench gate knows whether
// the speedup thresholds are meaningful (it skips loudly when they are not).
func BenchmarkParallelChiba(b *testing.B) {
	type result struct {
		wall time.Duration
		exec time.Duration
		fp   string
	}
	run := func(workers int) result {
		spec := ktau.DefaultChiba(benchRanks, 1)
		spec.Seed = 7
		spec.Racks = benchRacks
		spec.Parallel = workers > 1
		spec.Workers = workers
		t0 := time.Now()
		res := ktau.RunChiba(spec)
		if !res.Completed {
			b.Fatal("chiba run did not complete")
		}
		// fmt prints maps in sorted key order, so this renders every
		// per-rank and per-node metric deterministically.
		fp := fmt.Sprintf("%v %+v %+v", res.Exec, res.Ranks, res.Nodes)
		return result{wall: time.Since(t0), exec: res.Exec, fp: fp}
	}
	hostCPUs := runtime.NumCPU()
	var serial result
	var rows []map[string]any
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, workers := range benchWorkerSweep {
			gomaxprocs := min(workers, hostCPUs)
			prev := runtime.GOMAXPROCS(gomaxprocs)
			r := run(workers)
			runtime.GOMAXPROCS(prev)
			if workers == 1 {
				serial = r
			}
			if r.exec != serial.exec || r.fp != serial.fp {
				b.Fatalf("workers=%d run diverged from serial (exec %v vs %v)", workers, r.exec, serial.exec)
			}
			rows = append(rows, map[string]any{
				"workers":           workers,
				"gomaxprocs":        gomaxprocs,
				"wall_s":            r.wall.Seconds(),
				"speedup":           serial.wall.Seconds() / r.wall.Seconds(),
				"identical_results": true,
			})
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(serial.wall.Seconds(), "serial-wall-s")
	b.ReportMetric(last["wall_s"].(float64), fmt.Sprintf("wall-%dw-s", last["workers"].(int)))
	b.ReportMetric(last["speedup"].(float64), fmt.Sprintf("speedup-%dw-x", last["workers"].(int)))
	out := map[string]any{
		"benchmark":      "128-node 8-rack Chiba LU, partitioned-runner worker sweep vs serial",
		"ranks":          benchRanks,
		"nodes":          benchRanks,
		"racks":          benchRacks,
		"host_cpus":      hostCPUs,
		"serial_wall_s":  serial.wall.Seconds(),
		"virtual_exec_s": serial.exec.Seconds(),
		"rows":           rows,
	}
	writeBench(b, "BENCH_parallel.json", out)
}

// BenchmarkIONode runs the §6 I/O-node characterization extension: compute
// clients streaming checkpoints to an I/O node under two storage
// configurations, decomposed by KTAU's kernel-wide view.
func BenchmarkIONode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ktau.RunIONodeStudy(1)
		printOnce("ionode", func() {
			fmt.Println()
			s.Render(os.Stdout)
		})
		b.ReportMetric(s.Slow.Exec.Seconds(), "slow-disk-exec-s")
		b.ReportMetric(s.Fast.Exec.Seconds(), "fast-disk-exec-s")
	}
}
