package experiments

import (
	"fmt"
	"sync"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/mpisim"
	"ktau/internal/tau"
	"ktau/internal/workload"
)

// computeContexts are the TAU routines counted as "compute-bound phases"
// when tallying kernel TCP calls mapped into compute (Fig. 9).
var computeContexts = map[string]bool{
	"sweep_compute": true,
	"rhs":           true,
	"jacld":         true,
	"blts":          true,
	"jacu":          true,
	"buts":          true,
}

// rackTopology converts a spec's rack count into the cluster topology:
// racks <= 1 is the flat uniform network, otherwise the nodes are split
// into racks of ceil(nodes/racks) consecutive nodes with the default
// inter-rack latency. A racked topology partitions the runner so racks
// advance independently between epoch rendezvous.
func rackTopology(nodes, racks int) cluster.Topology {
	if racks <= 1 {
		return cluster.Topology{}
	}
	return cluster.Topology{RackSize: (nodes + racks - 1) / racks}
}

// RunChiba executes one Chiba configuration and extracts all metrics.
func RunChiba(spec ChibaSpec) *ChibaResult {
	c, w, tasks := launchChiba(spec)
	defer c.Shutdown()
	completed := c.RunUntilDone(tasks, 10*time.Minute)
	c.Settle(5 * time.Millisecond) // let in-flight acks and interrupts land
	return harvest(spec, c, w, tasks, completed)
}

// launchChiba boots the cluster for a Chiba configuration and spawns the MPI
// job, returning just before the engine is driven — the seam where the live
// monitoring variant (RunChibaLive) deploys its pipeline.
func launchChiba(spec ChibaSpec) (*cluster.Cluster, *mpisim.World, []*kernel.Task) {
	if spec.Ranks <= 0 || spec.PerNode <= 0 || spec.Ranks%spec.PerNode != 0 {
		panic("experiments: Ranks must be a positive multiple of PerNode")
	}
	nodes := spec.Ranks / spec.PerNode

	kp := kernel.DefaultParams() // dual P3-450, the Chiba node
	kp.IRQBalance = spec.IRQBalance
	kp.IRQPinCPU = spec.IRQPinCPU

	specs := cluster.UniformNodes("ccn", nodes)
	if spec.AnomalyNode >= 0 && spec.AnomalyNode < nodes {
		specs[spec.AnomalyNode].CPUs = 1
	}

	mopts := spec.Instr.KtauOptions()
	mopts.TraceCapacity = spec.TraceCapacity

	c := cluster.New(cluster.Config{
		Nodes:    specs,
		Kernel:   kp,
		Ktau:     mopts,
		TCP:      spec.TCP,
		Topology: rackTopology(nodes, spec.Racks),
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		Workers:  spec.Workers,
	})

	if spec.Daemons {
		for _, n := range c.Nodes {
			workload.StartSystemDaemons(n.K)
		}
	}

	// Placement: 64x2 puts ranks r and r+nodes on node r (so the paper's
	// ranks 61 and 125 share ccn10 = node 61); 128x1 puts rank r on node r.
	rspecs := make([]mpisim.RankSpec, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		node := r % nodes
		rs := mpisim.RankSpec{Stack: c.Node(node).Stack}
		if spec.Pinned {
			cpu := r / nodes // first batch CPU0, second batch CPU1
			if spec.PerNode == 1 {
				cpu = 0
				if spec.PinRankCPU >= 0 {
					cpu = spec.PinRankCPU
				}
			}
			rs.Affinity = kernel.AffinityCPU(cpu)
		}
		rspecs[r] = rs
	}

	topts := tau.Options{
		Enabled:       spec.Instr.TauEnabled(),
		OverheadPerOp: 400 * time.Nanosecond,
		TraceCapacity: spec.TraceCapacity,
	}
	w := mpisim.NewWorld(rspecs, topts)

	var body func(*mpisim.Rank)
	switch spec.Work {
	case WorkSweep3D:
		cfg := workload.DefaultSweepConfig(spec.Ranks)
		if spec.Iters > 0 {
			cfg.Iters = spec.Iters
		}
		body = workload.Sweep3D(cfg)
	default:
		cfg := workload.DefaultLUConfig(spec.Ranks)
		if spec.Iters > 0 {
			cfg.Iters = spec.Iters
		}
		body = workload.LU(cfg)
	}

	return c, w, w.Launch(spec.Work.String(), body)
}

// harvest extracts all per-rank and per-node metrics before shutdown.
func harvest(spec ChibaSpec, c *cluster.Cluster, w *mpisim.World,
	tasks []*kernel.Task, completed bool) *ChibaResult {

	res := &ChibaResult{Spec: spec, Completed: completed}
	var maxEnd time.Duration
	nodes := spec.Ranks / spec.PerNode

	// Node-level data first (needed for per-rank TCP per-call).
	nodeTCPPerCall := make([]time.Duration, nodes)
	for i := 0; i < nodes; i++ {
		n := c.Node(i)
		kw := n.K.Ktau().KernelWide()
		nd := NodeData{Name: n.Name, GroupExcl: map[string]time.Duration{}}
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
			nd.Procs = append(nd.Procs, ProcData{
				PID:     t.PID(),
				Name:    t.Name(),
				Kind:    t.Kind().String(),
				CPUTime: t.UserTime + t.KernTime,
			})
		}
		res.Nodes = append(res.Nodes, nd)
	}

	for r := 0; r < spec.Ranks; r++ {
		task := tasks[r]
		node := r % nodes
		k := c.Node(node).K
		rd := RankData{
			Rank:             r,
			Node:             c.Node(node).Name,
			Exec:             task.Runtime(),
			RecvKernelGroups: map[string]time.Duration{},
			NodeTCPPerCall:   nodeTCPPerCall[node],
		}
		if task.EndAt.Duration() > maxEnd {
			maxEnd = task.EndAt.Duration()
		}
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
		prof := w.Rank(r).Profile
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

// ---- run cache ----
//
// Several figures derive from the same configurations (Figs. 5, 6, 8 and
// Table 2 all need the 128x1 and 64x2 family). Runs are deterministic, so
// they are executed once per spec and memoised. The sweep harness runs
// cells concurrently in one process, so the cache is locked; the run
// itself executes outside the lock (a duplicate concurrent run costs time,
// never correctness — results for a spec are identical).

var (
	runCacheMu sync.Mutex
	runCache   = map[string]*ChibaResult{}
)

// Chiba returns the memoised result for a spec.
func Chiba(spec ChibaSpec) *ChibaResult {
	key := fmt.Sprintf("%+v", spec)
	runCacheMu.Lock()
	r, ok := runCache[key]
	runCacheMu.Unlock()
	if ok {
		return r
	}
	r = RunChiba(spec)
	runCacheMu.Lock()
	runCache[key] = r
	runCacheMu.Unlock()
	return r
}

// LUConfigs returns the five Table-2 configurations for a workload.
func LUConfigs(work Workload, ranks int, iters int, seed uint64) []ChibaSpec {
	mk := func(perNode int, mut func(*ChibaSpec)) ChibaSpec {
		s := DefaultChiba(ranks, perNode)
		s.Work = work
		s.Iters = iters
		s.Seed = seed
		if mut != nil {
			mut(&s)
		}
		return s
	}
	return []ChibaSpec{
		mk(1, nil), // 128x1
		mk(2, func(s *ChibaSpec) { s.AnomalyNode = (ranks / 2) * 61 / 64 % (ranks / 2) }), // 64x2 Anomaly
		mk(2, nil), // 64x2
		mk(2, func(s *ChibaSpec) { s.Pinned = true }),                      // 64x2 Pinned
		mk(2, func(s *ChibaSpec) { s.Pinned = true; s.IRQBalance = true }), // 64x2 Pin,I-Bal
	}
}
