package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/cluster"
	"ktau/internal/faultsim"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/perfmon"
	"ktau/internal/servesim"
	"ktau/internal/workload"
)

// ServeSpec configures the multi-tenant serving experiment: an open-loop
// request workload (servesim) monitored by the perfmon pipeline, with an
// optional noisy-neighbor daemon planted on one server node so the
// tail-latency attribution has something to finger.
type ServeSpec struct {
	// Nodes is the cluster size; the first quarter are client (load
	// generator) nodes, the rest servers.
	Nodes int
	Seed  uint64
	// Serve is the workload layout handed to servesim.Deploy.
	Serve servesim.Spec
	// PerfMon configures the monitoring pipeline watching the run.
	// RankPrefix defaults to "serve." so every fleet task counts as the
	// application and everything else as competing system activity.
	PerfMon perfmon.Config
	// Daemons starts the standard background population on every node.
	Daemons bool
	// RogueNode hosts the Rogue daemon (-1 = no rogue).
	RogueNode int
	Rogue     workload.DaemonSpec
	// Faults, when non-nil, is applied before the fleet starts.
	Faults *faultsim.Plan
	// Deadline caps the fleet's virtual runtime (default 2 minutes).
	Deadline time.Duration
	// Racks, when > 1, splits the nodes into this many racks with a higher
	// cross-rack latency (see ChibaSpec.Racks — changes results, partitions
	// the runner).
	Racks int
	// Parallel/Workers select host execution mode (results byte-identical).
	Parallel bool
	Workers  int
}

// DefaultServe returns the baseline serving scenario for a cluster of the
// given size (minimum 8 nodes): two tenants — "web", a calm Poisson stream
// of small requests, and "api", a bursty MMPP stream of heavier ones —
// totalling 8 logical clients per node, plus the "api-batchd" noisy
// neighbor on one server node. At the default 128 nodes that is 1024
// clients on 32 client nodes driving 96 server nodes.
func DefaultServe(nodes int) ServeSpec {
	if nodes < 8 {
		nodes = 8
	}
	clientN := nodes / 4
	if clientN < 2 {
		clientN = 2
	}
	var clients, servers []int
	for i := 0; i < nodes; i++ {
		if i < clientN {
			clients = append(clients, i)
		} else {
			servers = append(servers, i)
		}
	}
	return ServeSpec{
		Nodes: nodes,
		Seed:  1,
		Serve: servesim.Spec{
			ClientNodes: clients,
			ServerNodes: servers,
			Tenants: []servesim.TenantSpec{
				{
					Name: "web", Clients: 5 * nodes,
					Arrival:  servesim.ArrivalSpec{Kind: servesim.Poisson, Mean: 30 * time.Millisecond},
					Service:  1200 * time.Microsecond,
					ReqBytes: 512, RespBytes: 2048,
				},
				{
					Name: "api", Clients: 3 * nodes,
					Arrival: servesim.ArrivalSpec{
						Kind: servesim.MMPP, Mean: 60 * time.Millisecond, Burst: 8,
						CalmDwell: 150 * time.Millisecond, BurstDwell: 50 * time.Millisecond,
					},
					Service:  2500 * time.Microsecond,
					ReqBytes: 512, RespBytes: 8192,
				},
			},
			Workers:  2,
			QueueCap: 16,
			// 3 connections per (client node, tenant): with the 1:3
			// client:server split this covers every server node exactly once
			// per client node, so no server carries double connection load.
			FanOut:      3,
			Duration:    time.Second,
			TailK:       64,
			IdleTimeout: 2 * time.Second,
		},
		PerfMon:   perfmon.Config{Interval: 25 * time.Millisecond},
		Daemons:   true,
		RogueNode: servers[len(servers)/3],
		Rogue:     workload.NoisyNeighbor("api-batchd"),
		Parallel:  defaultParallel,
		Workers:   defaultWorkers,
	}
}

// TenantServe is one tenant's end-of-run view: counters, cluster-wide
// latency quantiles, and the kernel attribution of its worst tail node.
type TenantServe struct {
	Tenant  int
	Name    string
	Arrived uint64
	OK      uint64
	Drops   uint64
	Lost    uint64
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration
	Max     time.Duration
	// WorstNode is the server node with the worst per-node p99 (-1 when
	// the tenant completed nothing) — p99 rather than p999 because a
	// per-node p999 is close to a per-node max, and a single burst
	// collision elsewhere would outweigh sustained degradation. WorstP999
	// is that node's p999; Attr explains what its kernel was doing during
	// the node's recorded tail windows.
	WorstNode int
	WorstP99  time.Duration
	WorstP999 time.Duration
	Attr      servesim.Attribution
}

// ServeResult is the harvested serving run.
type ServeResult struct {
	Spec      ServeSpec
	Completed bool // every fleet task exited before the deadline
	Drained   bool // the monitoring pipeline delivered its final frames
	// Stats is the merged per-tenant/per-node latency store.
	Stats *servesim.Store
	// Store is the perfmon collector's kernel time-series.
	Store     *perfmon.Store
	Collector int
	Failovers int
	Injector  *faultsim.Injector // fault plan counters (nil without faults)
	Tenants   []TenantServe
	// LeakedConns counts fleet connection endpoints still open after the
	// drain — graceful close means zero.
	LeakedConns int
	// HZ is the nodes' TSC rate, for cycle⇄time conversion.
	HZ int64
	// RogueFingered reports whether some tenant's worst-tail-node
	// attribution ranked the planted rogue as the top competing process.
	RogueFingered bool
}

// Check returns the first accounting identity the run breaks, or nil: the
// fleet completed, the perfmon pipeline drained, no connection endpoint
// leaked, and every tenant's arrivals each completed, were dropped at
// admission or were lost.
func (r *ServeResult) Check() error {
	switch {
	case !r.Completed:
		return errors.New("fleet did not complete")
	case !r.Drained:
		return errors.New("perfmon pipeline did not drain")
	case r.LeakedConns != 0:
		return fmt.Errorf("%d connection endpoints leaked", r.LeakedConns)
	}
	for _, t := range r.Tenants {
		if t.Arrived != t.OK+t.Drops+t.Lost {
			return fmt.Errorf("tenant %s: arrived %d != ok %d + drops %d + lost %d",
				t.Name, t.Arrived, t.OK, t.Drops, t.Lost)
		}
	}
	return nil
}

// RunServe executes one serving scenario end to end: boot the cluster,
// start daemons and the optional rogue, apply faults, deploy the perfmon
// pipeline and the serving fleet, drive the load window to completion,
// drain the pipeline, then correlate each tenant's worst tails with the
// collector's kernel view.
func RunServe(spec ServeSpec) *ServeResult {
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("ccn", spec.Nodes),
		Ktau: ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
		},
		Link:     netsim.DefaultLinkSpec(),
		Topology: rackTopology(spec.Nodes, spec.Racks),
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		Workers:  spec.Workers,
	})
	defer c.Shutdown()

	if spec.Daemons {
		for _, n := range c.Nodes {
			workload.StartSystemDaemons(n.K)
		}
	}
	if spec.RogueNode >= 0 && spec.RogueNode < len(c.Nodes) && spec.Rogue.Period > 0 {
		workload.StartDaemon(c.Node(spec.RogueNode).K, spec.Rogue)
	}

	var inj *faultsim.Injector
	if spec.Faults != nil {
		var err error
		inj, err = faultsim.Apply(c, *spec.Faults)
		if err != nil {
			panic("experiments: " + err.Error())
		}
	}

	pcfg := spec.PerfMon
	if pcfg.RankPrefix == "" {
		pcfg.RankPrefix = "serve."
	}
	pm, err := perfmon.Deploy(c, pcfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}

	fleet, err := servesim.Deploy(c, spec.Serve)
	if err != nil {
		panic("experiments: " + err.Error())
	}

	deadline := spec.Deadline
	if deadline <= 0 {
		deadline = 2 * time.Minute
	}
	completed := c.RunUntilDone(fleet.Tasks(), deadline)
	pm.Stop()
	drained := c.RunUntilDone(pm.Tasks(), time.Minute)
	c.Settle(5 * time.Millisecond)

	st := fleet.Stats()
	store := pm.Store()
	hz := c.Node(0).K.Params().HZ
	res := &ServeResult{
		Spec:        spec,
		Completed:   completed,
		Drained:     drained,
		Stats:       st,
		Store:       store,
		Collector:   pm.Collector(),
		Failovers:   pm.Failovers(),
		Injector:    inj,
		LeakedConns: fleet.OpenConns(),
		HZ:          hz,
	}
	for t := range spec.Serve.Tenants {
		ts := TenantServe{Tenant: t, Name: fleet.TenantName(t), WorstNode: -1}
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
			if spec.RogueNode >= 0 && ts.WorstNode == spec.RogueNode {
				if d := ts.Attr.TopDaemon(); d != nil && d.Name == spec.Rogue.Name {
					res.RogueFingered = true
				}
			}
		}
		res.Tenants = append(res.Tenants, ts)
	}
	return res
}

// Render prints the serving study: per-tenant latency distributions and the
// kernel's explanation for each tenant's worst tail node.
func (r *ServeResult) Render(w io.Writer) {
	s := &r.Spec
	var clients int
	for _, t := range s.Serve.Tenants {
		clients += t.Clients
	}
	fmt.Fprintf(w, "multi-tenant serving: %d nodes (%d client, %d server), %d tenants, %d logical clients, %v load window\n",
		s.Nodes, len(s.Serve.ClientNodes), len(s.Serve.ServerNodes), len(s.Serve.Tenants), clients, s.Serve.Duration)

	var rows [][]string
	var totalOK uint64
	for _, t := range r.Tenants {
		totalOK += t.OK
		worst := "-"
		if t.WorstNode >= 0 {
			worst = fmt.Sprintf("ccn%d", t.WorstNode)
		}
		rows = append(rows, []string{
			t.Name,
			fmt.Sprintf("%d", t.Arrived),
			fmt.Sprintf("%d", t.OK),
			fmt.Sprintf("%d", t.Drops),
			fmt.Sprintf("%d", t.Lost),
			fmtLatency(t.P50), fmtLatency(t.P99), fmtLatency(t.P999), fmtLatency(t.Max),
			worst,
		})
	}
	analysis.Table(w, []string{"tenant", "arrivals", "ok", "drops", "lost",
		"p50", "p99", "p999", "max", "worst node"}, rows)

	for _, t := range r.Tenants {
		if t.WorstNode < 0 {
			continue
		}
		fmt.Fprintf(w, "tenant %s's p999 spike on node ccn%d (%v over %d tail windows, %d kernel rounds) is %s\n",
			t.Name, t.WorstNode, fmtLatency(t.WorstP999), t.Attr.Windows, len(t.Attr.Rounds), t.Attr.String())
	}
	if s.RogueNode >= 0 {
		verdict := "NOT fingered"
		if r.RogueFingered {
			verdict = "fingered as the top competing process on the worst tail node"
		}
		fmt.Fprintf(w, "planted rogue %s on ccn%d: %s\n", s.Rogue.Name, s.RogueNode, verdict)
	}

	fmt.Fprintf(w, "throughput: %.0f req/s completed over the load window; pipeline: %d frames, %d dropped, %d failovers, collector ccn%d\n",
		float64(totalOK)/s.Serve.Duration.Seconds(), r.Store.Frames(), r.Store.Drops(), r.Failovers, r.Collector)
	if r.Injector != nil {
		fmt.Fprintf(w, "fault plan injected: %d losses, %d delayed, %d partitioned, %d slowdown transitions, %d stalls, %d procfs errors\n",
			r.Injector.Stats.Losses, r.Injector.Stats.Delays, r.Injector.Stats.Partitioned,
			r.Injector.Stats.Slowdowns, r.Injector.Stats.Stalls, r.Injector.Stats.ProcfsErrors)
	}
	if !r.Completed {
		fmt.Fprintln(w, "WARNING: fleet did not drain before the deadline")
	}
	if r.LeakedConns != 0 {
		fmt.Fprintf(w, "WARNING: %d connection endpoints leaked\n", r.LeakedConns)
	}
}

// fmtLatency renders a duration at µs resolution without trailing noise.
func fmtLatency(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
