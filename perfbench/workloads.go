package main

import (
	"fmt"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/experiments"
	"ktau/internal/faultsim"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/mpisim"
	"ktau/internal/netsim"
	"ktau/internal/perfmon"
	"ktau/internal/servesim"
	"ktau/internal/sim"
	"ktau/internal/tau"
	"ktau/internal/tracepipe"
	apps "ktau/internal/workload"
)

// workload is one benchmark input. setup rebuilds the experiment from the
// layers' public calls up to the first Runner.Step, so every call into a
// layer can be timed from here, and returns the rest of the run: drive the
// simulation, harvest, check and digest. reference runs the same
// experiment through its experiments entry point; both must produce the
// same digest.
type workload struct {
	name  string
	setup func(r *simRun, seed uint64) (drive func() (string, error), err error)
	// reference returns the digest of the experiments path. For lu_rack_w2
	// it runs at one worker, so the comparison is also the 1-vs-2-worker
	// identity.
	reference func(seed uint64) (string, error)
}

// The workloads stress different layers, so that a change aimed at one
// layer has a workload that exercises it and one on which it should read as
// no change (README.md has the full reasons).
var workloads = []*workload{
	{
		// Simulator core (task handoff, scheduler, ktau probes, bulk MPI over
		// tcpsim) plus cross-thread runner epochs; no collection agents.
		name:  "lu_rack_w2",
		setup: setupLURack,
		reference: func(seed uint64) (string, error) {
			spec := luRackSpec(seed)
			spec.Workers = 1
			return chibaDigest(experiments.RunChiba(spec))
		},
	},
	{
		// Agents draining rings, frame codecs, collector ingest, merge,
		// export and store growth; serial single-group runner.
		name:  "lu_traced",
		setup: setupLUTraced,
		reference: func(seed uint64) (string, error) {
			spec, opts := experiments.TraceChibaSpec(32, seed)
			return liveDigest(experiments.RunChibaLive(spec, opts), nil)
		},
	},
	{
		// The same kernel/tcpsim/netsim layers driven by many small RPCs,
		// connection churn and admission queues; perfmon without tracepipe.
		name:  "serve",
		setup: setupServe,
		reference: func(seed uint64) (string, error) {
			return serveDigest(experiments.RunServe(serveSpec(seed)), nil)
		},
	},
}

// execute makes one run of w. With setupOnly it stops before the first
// Runner.Step: set-up is short, so it is sampled on its own many times.
func execute(w *workload, seed uint64, tr *tracer, setupOnly bool) *outcome {
	r := newRun(tr)
	drive, err := w.setup(r, seed)
	r.out.setup = time.Since(r.start)
	r.out.setupCPU = cpuTime() - r.cpu0
	if err != nil {
		r.problem("setup: %v", err)
		return r.finish("", nil)
	}
	if setupOnly {
		return r.finish("", nil)
	}
	return r.finish(drive())
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// luRackSpec is Chiba LU on 64 ranks, one per node, in 8 racks, driven by
// the partitioned runner at 2 workers.
func luRackSpec(seed uint64) experiments.ChibaSpec {
	spec := experiments.DefaultChiba(64, 1)
	spec.Seed = seed
	spec.Racks = 8
	spec.Parallel = true
	spec.Workers = 2
	return spec
}

// serveSpec is the default 64-node serving scenario, serial.
func serveSpec(seed uint64) experiments.ServeSpec {
	spec := experiments.DefaultServe(64)
	spec.Seed = seed
	return spec
}

// outcome is what one run reports: its output digest, violated accounting
// identities, host timings and the layers' deterministic counters.
type outcome struct {
	digest   string
	problems []string
	wall     time.Duration // start to verified output
	cpu      time.Duration // process CPU time over the same span
	setup    time.Duration // start to just before the first Runner.Step
	setupCPU time.Duration // process CPU time over the same span
	stepTime time.Duration // host time inside Runner.Step and Settle
	stepCPU  time.Duration // process CPU time inside the runner loops
	steps    int
	groups   int
	counts   map[string]float64
}

// simRun drives one cluster the way cluster.RunUntilDone and Settle do, but
// one Runner.Step at a time so that each step can be timed.
type simRun struct {
	tr    *tracer
	c     *cluster.Cluster
	start time.Time
	cpu0  time.Duration
	out   *outcome
}

func newRun(tr *tracer) *simRun {
	tr.startRun()
	tr.begin("bench.run")
	return &simRun{tr: tr, start: time.Now(), cpu0: cpuTime(), out: &outcome{}}
}

// boot wraps cluster.New.
func (r *simRun) boot(cfg cluster.Config) *cluster.Cluster {
	r.tr.begin("cluster.boot")
	r.c = cluster.New(cfg)
	r.tr.end()
	r.out.groups = len(r.c.Runner.Groups())
	return r.c
}

func (r *simRun) step(limit sim.Time) bool {
	t0 := time.Now()
	ok := r.c.Runner.Step(limit)
	d := time.Since(t0)
	r.out.stepTime += d
	r.out.steps++
	r.tr.step(d)
	return ok
}

// runUntilDone is cluster.RunUntilDone with timed steps.
func (r *simRun) runUntilDone(tasks []*kernel.Task, deadline time.Duration) bool {
	r.tr.begin("sim.run")
	cpu0 := cpuTime()
	defer func() {
		r.out.stepCPU += cpuTime() - cpu0
		r.tr.end()
	}()
	allDone := func() bool {
		for _, t := range tasks {
			if !t.Exited() && !t.Kernel().Crashed() {
				return false
			}
		}
		return true
	}
	limit := r.c.Runner.Now().Add(deadline)
	for {
		if allDone() {
			return true
		}
		if r.c.Runner.Now() >= limit {
			return false
		}
		if !r.step(limit) {
			return allDone()
		}
	}
}

// settle wraps Cluster.Settle; its steps count as step time but are not
// timed one by one.
func (r *simRun) settle(d time.Duration) {
	r.tr.begin("sim.settle")
	t0, cpu0 := time.Now(), cpuTime()
	r.c.Settle(d)
	r.out.stepTime += time.Since(t0)
	r.out.stepCPU += cpuTime() - cpu0
	r.tr.end()
}

// finish records the digest, closes the run's root span and stops the
// cluster. Shutdown only releases the task goroutines; main waits for them.
func (r *simRun) finish(digest string, err error) *outcome {
	if err != nil {
		r.problem("%v", err)
	}
	r.out.digest = digest
	r.out.wall = time.Since(r.start)
	r.out.cpu = cpuTime() - r.cpu0
	r.tr.end()
	r.c.Shutdown()
	return r.out
}

func (r *simRun) problem(format string, args ...any) {
	r.out.problems = append(r.out.problems, fmt.Sprintf(format, args...))
}

// countLayers reads the layers' public counters, summed over nodes.
func (r *simRun) countLayers(w *mpisim.World) {
	cnt := map[string]float64{}
	for _, n := range r.c.Nodes {
		ks := n.K.Stats
		cnt["kernel.ctx_switches"] += float64(ks.ContextSwitches)
		cnt["kernel.timer_irqs"] += float64(ks.TimerIRQs)
		cnt["kernel.dev_irqs"] += float64(ks.DevIRQs)
		cnt["kernel.softirqs"] += float64(ks.Softirqs)
		ms := n.K.Ktau().Stats
		cnt["ktau.probes"] += float64(ms.Entries + ms.Exits + ms.Atomics + ms.Spans)
		ts := n.Stack.Stats
		cnt["tcpsim.segs"] += float64(ts.SegsSent)
		cnt["tcpsim.acks"] += float64(ts.AcksSent)
		cnt["tcpsim.conns_opened"] += float64(ts.ConnsOpened)
		cnt["tcpsim.open_conns_end"] += float64(n.Stack.OpenConns())
	}
	cnt["netsim.frames"] = float64(r.c.Net.Stats.Frames)
	cnt["netsim.bytes"] = float64(r.c.Net.Stats.Bytes)
	if w != nil {
		for i := 0; i < w.Size(); i++ {
			cnt["mpisim.sends"] += float64(w.Rank(i).Stats.Sends)
			cnt["mpisim.bytes"] += float64(w.Rank(i).Stats.BytesSent)
		}
	}
	r.out.counts = cnt
}

func (r *simRun) countPerfmon(pm *perfmon.PerfMon) {
	st := pm.Store()
	r.out.counts["perfmon.frames"] = float64(st.Frames())
	r.out.counts["perfmon.drops"] = float64(st.Drops())
	for _, info := range st.Nodes() {
		r.out.counts["perfmon.wire_bytes"] += float64(info.Bytes)
	}
}

// ---- lu_rack_w2 ----

func setupLURack(r *simRun, seed uint64) (func() (string, error), error) {
	spec := luRackSpec(seed)
	w, tasks := r.launchChiba(spec)
	return func() (string, error) {
		completed := r.runUntilDone(tasks, 10*time.Minute)
		r.settle(5 * time.Millisecond)
		res := r.harvest(spec, w, tasks, completed)
		if !res.Completed {
			r.problem("job did not complete")
		}
		r.countLayers(w)
		r.tr.begin("bench.digest")
		defer r.tr.end()
		return chibaDigest(res)
	}, nil
}

// launchChiba mirrors the experiments package's Chiba launch: boot, system
// daemons, rank placement, MPI world and job spawn.
func (r *simRun) launchChiba(spec experiments.ChibaSpec) (*mpisim.World, []*kernel.Task) {
	nodes := spec.Ranks / spec.PerNode
	kp := kernel.DefaultParams()
	kp.IRQBalance = spec.IRQBalance
	kp.IRQPinCPU = spec.IRQPinCPU
	specs := cluster.UniformNodes("ccn", nodes)
	if spec.AnomalyNode >= 0 && spec.AnomalyNode < nodes {
		specs[spec.AnomalyNode].CPUs = 1
	}
	mopts := spec.Instr.KtauOptions()
	mopts.TraceCapacity = spec.TraceCapacity
	topo := cluster.Topology{}
	if spec.Racks > 1 {
		topo.RackSize = (nodes + spec.Racks - 1) / spec.Racks
	}
	c := r.boot(cluster.Config{
		Nodes:    specs,
		Kernel:   kp,
		Ktau:     mopts,
		TCP:      spec.TCP,
		Topology: topo,
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		Workers:  spec.Workers,
	})

	if spec.Daemons {
		r.tr.begin("kernel.daemons")
		for _, n := range c.Nodes {
			apps.StartSystemDaemons(n.K)
		}
		r.tr.end()
	}

	r.tr.begin("mpisim.launch")
	defer r.tr.end()
	rspecs := make([]mpisim.RankSpec, spec.Ranks)
	for rk := 0; rk < spec.Ranks; rk++ {
		rs := mpisim.RankSpec{Stack: c.Node(rk % nodes).Stack}
		if spec.Pinned {
			cpu := rk / nodes
			if spec.PerNode == 1 {
				cpu = max(spec.PinRankCPU, 0)
			}
			rs.Affinity = kernel.AffinityCPU(cpu)
		}
		rspecs[rk] = rs
	}
	w := mpisim.NewWorld(rspecs, tau.Options{
		Enabled:       spec.Instr.TauEnabled(),
		OverheadPerOp: 400 * time.Nanosecond,
		TraceCapacity: spec.TraceCapacity,
	})
	var body func(*mpisim.Rank)
	if spec.Work == experiments.WorkSweep3D {
		cfg := apps.DefaultSweepConfig(spec.Ranks)
		if spec.Iters > 0 {
			cfg.Iters = spec.Iters
		}
		body = apps.Sweep3D(cfg)
	} else {
		cfg := apps.DefaultLUConfig(spec.Ranks)
		if spec.Iters > 0 {
			cfg.Iters = spec.Iters
		}
		body = apps.LU(cfg)
	}
	return w, w.Launch(spec.Work.String(), body)
}

// computeContexts are the TAU routines the Chiba harvest counts as compute
// phases (Fig. 9).
var computeContexts = map[string]bool{
	"sweep_compute": true, "rhs": true, "jacld": true, "blts": true, "jacu": true, "buts": true,
}

// harvest mirrors the experiments package's post-mortem extraction: node
// group totals and process activity, then per-rank KTAU snapshots and TAU
// profiles.
func (r *simRun) harvest(spec experiments.ChibaSpec, w *mpisim.World, tasks []*kernel.Task,
	completed bool) *experiments.ChibaResult {
	r.tr.begin("ktau.harvest")
	defer r.tr.end()
	c := r.c
	res := &experiments.ChibaResult{Spec: spec, Completed: completed}
	nodes := spec.Ranks / spec.PerNode
	nodeTCPPerCall := make([]time.Duration, nodes)
	for i := 0; i < nodes; i++ {
		n := c.Node(i)
		kw := n.K.Ktau().KernelWide()
		nd := experiments.NodeData{Name: n.Name, GroupExcl: map[string]time.Duration{}}
		for g, cyc := range kw.GroupTotals() {
			nd.GroupExcl[g.String()] += n.K.DurationOf(cyc)
		}
		nd.SchedExcl = nd.GroupExcl[ktau.GroupSched.String()]
		if ev := kw.FindEvent("tcp_v4_rcv"); ev != nil {
			nd.TCPRcvCalls = ev.Calls
			nd.TCPRcvExcl = n.K.DurationOf(ev.Excl)
			if ev.Calls > 0 {
				nodeTCPPerCall[i] = nd.TCPRcvExcl / time.Duration(ev.Calls)
			}
		}
		for _, t := range n.K.AllTasks() {
			nd.Procs = append(nd.Procs, experiments.ProcData{
				PID: t.PID(), Name: t.Name(), Kind: t.Kind().String(), CPUTime: t.UserTime + t.KernTime,
			})
		}
		res.Nodes = append(res.Nodes, nd)
	}
	var maxEnd time.Duration
	for rk := 0; rk < spec.Ranks; rk++ {
		task := tasks[rk]
		node := rk % nodes
		k := c.Node(node).K
		rd := experiments.RankData{
			Rank:             rk,
			Node:             c.Node(node).Name,
			Exec:             task.Runtime(),
			RecvKernelGroups: map[string]time.Duration{},
			NodeTCPPerCall:   nodeTCPPerCall[node],
		}
		maxEnd = max(maxEnd, task.EndAt.Duration())
		snap := k.Ktau().SnapshotTask(task.KD())
		if ev := snap.FindEvent("schedule_vol"); ev != nil {
			rd.VolSched = k.DurationOf(ev.Excl)
		}
		if ev := snap.FindEvent("schedule"); ev != nil {
			rd.InvolSched = k.DurationOf(ev.Excl)
		}
		for _, e := range snap.Events {
			if e.Group == ktau.GroupIRQ {
				rd.IRQ += k.DurationOf(e.Excl)
			}
		}
		for _, m := range snap.Mapped {
			if m.CtxName == "MPI_Recv()" {
				rd.RecvKernelGroups[m.Group.String()] += k.DurationOf(m.Excl)
			}
			if computeContexts[m.CtxName] && m.Group == ktau.GroupTCP {
				rd.TCPCallsInCompute += m.Calls
			}
		}
		prof := w.Rank(rk).Profile
		if ev := prof.Find("MPI_Recv()"); ev != nil {
			rd.MPIRecvExcl = k.DurationOf(ev.Excl)
		}
		if ev := prof.Find("rhs"); ev != nil {
			rd.RhsExcl = k.DurationOf(ev.Excl)
		}
		res.Ranks = append(res.Ranks, rd)
	}
	res.Exec = maxEnd
	return res
}

// ---- lu_traced ----

func setupLUTraced(r *simRun, seed uint64) (func() (string, error), error) {
	spec, opts := experiments.TraceChibaSpec(32, seed)
	w, tasks := r.launchChiba(spec)

	r.tr.begin("faultsim.apply")
	inj, err := faultsim.Apply(r.c, *opts.Faults)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("faultsim: %w", err)
	}

	pcfg := opts.PerfMon
	pcfg.RankPrefix = spec.Work.String() + ".rank"
	r.tr.begin("perfmon.deploy")
	pm, err := perfmon.Deploy(r.c, pcfg)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("perfmon: %w", err)
	}

	tcfg := *opts.Trace
	r.tr.begin("tracepipe.deploy")
	wireTraceSources(&tcfg, spec, w)
	tp, err := tracepipe.Deploy(r.c, tcfg)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("tracepipe: %w", err)
	}

	return func() (string, error) {
		completed := r.runUntilDone(tasks, 10*time.Minute)
		pm.Stop()
		tp.Stop()
		drained := r.runUntilDone(pm.Tasks(), time.Minute)
		traceDrained := r.runUntilDone(tp.Tasks(), time.Minute)
		r.settle(5 * time.Millisecond)
		if !completed {
			r.problem("job did not complete")
		}
		if !drained {
			r.problem("perfmon pipeline did not drain")
		}
		if !traceDrained {
			r.problem("trace pipeline did not drain")
		}

		chiba := r.harvest(spec, w, tasks, completed)
		store := pm.Store()
		r.tr.begin("perfmon.detect")
		noise := store.DetectNoise(pm.Config().Detect, pm.Config().RankPrefix)
		r.tr.end()

		r.countLayers(w)
		r.countPerfmon(pm)
		col := tp.Store()
		r.tr.begin("tracepipe.merge")
		flows := col.Flows()
		r.tr.end()
		recs, msgs := col.Totals()
		r.out.counts["tracepipe.records"] = float64(recs)
		r.out.counts["tracepipe.msgs"] = float64(msgs)
		r.out.counts["tracepipe.flows"] = float64(len(flows))
		for _, s := range col.Stats() {
			r.out.counts["tracepipe.frames"] += float64(s.Frames)
			r.out.counts["tracepipe.lost"] += float64(s.KernRingLost + s.UserRingLost)
		}

		return liveDigest(&experiments.LiveResult{
			ChibaResult:  chiba,
			Store:        store,
			Collector:    pm.Collector(),
			Noise:        noise,
			Drained:      drained,
			Injector:     inj,
			Failovers:    pm.Failovers(),
			Trace:        tp,
			TraceDrained: traceDrained,
		}, r.tr)
	}, nil
}

// wireTraceSources mirrors the experiments package's trace wiring: each
// node's agent also drains the TAU ring and MPI message log of every rank
// placed on it.
func wireTraceSources(cfg *tracepipe.Config, spec experiments.ChibaSpec, w *mpisim.World) {
	nodes := spec.Ranks / spec.PerNode
	w.EnableMsgLog()
	byNode := make([][]int, nodes)
	for rk := 0; rk < spec.Ranks; rk++ {
		byNode[rk%nodes] = append(byNode[rk%nodes], rk)
	}
	cfg.UserSources = func(idx int) []tracepipe.UserSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.UserSource, 0, len(byNode[idx]))
		for _, rk := range byNode[idx] {
			rank := w.Rank(rk)
			out = append(out, tracepipe.UserSource{
				PID:  rank.Task.PID(),
				Task: rank.Task.Name(),
				Drain: func() ([]tracepipe.Rec, uint64) {
					if rank.Tau == nil {
						return nil, 0
					}
					recs := rank.Tau.DrainTrace()
					conv := make([]tracepipe.Rec, 0, len(recs))
					for _, t := range recs {
						kind := ktau.KindExit
						if t.Entry {
							kind = ktau.KindEntry
						}
						conv = append(conv, tracepipe.Rec{TSC: t.TSC, Name: t.Name, Kind: kind})
					}
					return conv, rank.Tau.TraceLost()
				},
			})
		}
		return out
	}
	cfg.MsgSources = func(idx int) []tracepipe.MsgSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.MsgSource, 0, len(byNode[idx]))
		for _, rk := range byNode[idx] {
			rank := w.Rank(rk)
			out = append(out, tracepipe.MsgSource{
				Drain: func() []tracepipe.Msg {
					evs := rank.DrainMsgs()
					conv := make([]tracepipe.Msg, 0, len(evs))
					for _, e := range evs {
						conv = append(conv, tracepipe.Msg{
							Src: e.Src, Dst: e.Dst, Tag: e.Tag, Bytes: e.Bytes,
							Seq: e.Seq, Send: e.Send, PID: rank.Task.PID(),
							StartTSC: e.StartTSC, EndTSC: e.EndTSC,
						})
					}
					return conv
				},
			})
		}
		return out
	}
}

// ---- serve ----

func setupServe(r *simRun, seed uint64) (func() (string, error), error) {
	spec := serveSpec(seed)
	c := r.boot(cluster.Config{
		Nodes:    cluster.UniformNodes("ccn", spec.Nodes),
		Ktau:     ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true},
		Link:     netsim.DefaultLinkSpec(),
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		Workers:  spec.Workers,
	})

	r.tr.begin("kernel.daemons")
	for _, n := range c.Nodes {
		apps.StartSystemDaemons(n.K)
	}
	apps.StartDaemon(c.Node(spec.RogueNode).K, spec.Rogue)
	r.tr.end()

	pcfg := spec.PerfMon
	pcfg.RankPrefix = "serve."
	r.tr.begin("perfmon.deploy")
	pm, err := perfmon.Deploy(c, pcfg)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("perfmon: %w", err)
	}
	r.tr.begin("servesim.deploy")
	fleet, err := servesim.Deploy(c, spec.Serve)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("servesim: %w", err)
	}

	return func() (string, error) {
		completed := r.runUntilDone(fleet.Tasks(), 2*time.Minute)
		pm.Stop()
		drained := r.runUntilDone(pm.Tasks(), time.Minute)
		r.settle(5 * time.Millisecond)

		st := fleet.Stats()
		store := pm.Store()
		hz := c.Node(0).K.Params().HZ
		res := &experiments.ServeResult{
			Spec:        spec,
			Completed:   completed,
			Drained:     drained,
			Stats:       st,
			Store:       store,
			Collector:   pm.Collector(),
			Failovers:   pm.Failovers(),
			LeakedConns: fleet.OpenConns(),
			HZ:          hz,
		}
		r.tr.begin("servesim.attribute")
		for t := range spec.Serve.Tenants {
			ts := experiments.TenantServe{Tenant: t, Name: fleet.TenantName(t), WorstNode: -1}
			ts.Arrived, ts.OK, ts.Drops, ts.Lost = st.TenantCounts(t)
			var h servesim.Hist
			st.TenantHist(t, &h)
			if h.Count() > 0 {
				ts.P50 = h.Quantile(0.50)
				ts.P99 = h.Quantile(0.99)
				ts.P999 = h.Quantile(0.999)
				ts.Max = h.Max()
			}
			for _, sn := range spec.Serve.ServerNodes {
				nh := st.Hist(t, sn)
				if nh.Count() == 0 {
					continue
				}
				if p := nh.Quantile(0.99); ts.WorstNode < 0 || p > ts.WorstP99 {
					ts.WorstNode, ts.WorstP99 = sn, p
					ts.WorstP999 = nh.Quantile(0.999)
				}
			}
			if ts.WorstNode >= 0 {
				ts.Attr = servesim.Attribute(store, c.Nodes[ts.WorstNode].Name, t,
					st.Tails(t, ts.WorstNode), hz, pcfg.RankPrefix)
				if ts.WorstNode == spec.RogueNode {
					if d := ts.Attr.TopDaemon(); d != nil && d.Name == spec.Rogue.Name {
						res.RogueFingered = true
					}
				}
			}
			res.Tenants = append(res.Tenants, ts)
		}
		r.tr.end()

		for _, p := range serveIdentities(res) {
			r.problem("%s", p)
		}
		r.countLayers(nil)
		r.countPerfmon(pm)
		for _, ts := range res.Tenants {
			r.out.counts["servesim.requests"] += float64(ts.Arrived)
			r.out.counts["servesim.ok"] += float64(ts.OK)
			r.out.counts["servesim.drops"] += float64(ts.Drops)
		}
		return serveDigest(res, r.tr)
	}, nil
}

// serveIdentities checks the serving run's accounting: completion, a
// drained pipeline, no leaked connections, and per tenant every arrival
// either completed, was dropped at admission, or was lost.
func serveIdentities(res *experiments.ServeResult) []string {
	var out []string
	if !res.Completed {
		out = append(out, "fleet did not complete")
	}
	if !res.Drained {
		out = append(out, "perfmon pipeline did not drain")
	}
	if res.LeakedConns != 0 {
		out = append(out, fmt.Sprintf("%d leaked connections", res.LeakedConns))
	}
	for _, t := range res.Tenants {
		if t.Arrived != t.OK+t.Drops+t.Lost {
			out = append(out, fmt.Sprintf("tenant %s: arrived %d != ok %d + drops %d + lost %d",
				t.Name, t.Arrived, t.OK, t.Drops, t.Lost))
		}
	}
	return out
}
