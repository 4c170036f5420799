// Package cluster assembles multi-node simulated systems: one kernel + NIC +
// TCP stack per node, each on its own discrete-event engine, joined by a
// shared interconnect and driven through a conservative time-windowed runner.
// It is the level at which the paper's testbeds are described — neutron
// (4-CPU SMP), neuronic (16x2 P4 cluster) and Chiba-City (128x2 P3-450 over
// Ethernet) — including per-node oddities such as the ccn10 node whose kernel
// detected only one processor (paper §5.2).
package cluster

import (
	"fmt"
	"runtime"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/procfs"
	"ktau/internal/sim"
	"ktau/internal/tcpsim"
)

// NodeSpec describes one node.
type NodeSpec struct {
	Name string
	// CPUs overrides the cluster default when > 0 (set to 1 on the anomaly
	// node to reproduce the missing-processor bug).
	CPUs int
}

// Config describes a whole cluster.
type Config struct {
	// Nodes lists the machines; use UniformNodes for homogeneous clusters.
	Nodes []NodeSpec
	// Kernel is the per-node kernel parameter template (DefaultParams-based).
	Kernel kernel.Params
	// PerNode optionally tweaks kernel parameters per node after the
	// template is applied (e.g. enable irq-balance everywhere, or pin IRQs).
	PerNode func(name string, p *kernel.Params)
	// Ktau configures each node's measurement system.
	Ktau ktau.Options
	// TCP configures each node's network stack cost model.
	TCP tcpsim.Params
	// Link configures the interconnect. Its Latency doubles as the runner's
	// minimum lookahead: no node can affect another in less than one wire
	// latency.
	Link netsim.LinkSpec
	// Topology optionally structures the interconnect into racks with a
	// higher cross-rack latency. The zero value is a flat uniform network.
	// A racked topology is what lets the partitioned runner advance racks
	// independently between epoch rendezvous.
	Topology Topology
	// Seed drives all randomness in the simulation.
	Seed uint64
	// Parallel runs node engines on multiple worker goroutines. Scheduling
	// decisions are identical either way — a parallel run is byte-identical
	// to a serial run with the same seed — so this is purely a wall-clock
	// choice.
	Parallel bool
	// Workers caps the worker goroutines when Parallel (default GOMAXPROCS).
	Workers int
}

// DefaultInterRackFactor scales Link.Latency into the default cross-rack
// latency: an extra switch tier plus longer runs, roughly matching the
// Chiba-City "town" structure of eight or so scalable units behind a
// central switch.
const DefaultInterRackFactor = 8

// Topology describes the physical structure of the interconnect.
type Topology struct {
	// RackSize groups consecutive nodes into racks of this size; node i is
	// in rack i/RackSize. Zero (or >= the node count) means a flat network.
	RackSize int
	// InterRackLatency is the one-way latency between nodes in different
	// racks. Defaults to DefaultInterRackFactor * Link.Latency when RackSize
	// is set; must be at least Link.Latency.
	InterRackLatency time.Duration
}

// racked reports whether the topology actually splits n nodes into more
// than one rack.
func (t Topology) racked(n int) bool {
	return t.RackSize > 0 && t.RackSize < n
}

// UniformNodes returns n NodeSpecs named prefix0..prefix<n-1>.
func UniformNodes(prefix string, n int) []NodeSpec {
	out := make([]NodeSpec, n)
	for i := range out {
		out[i] = NodeSpec{Name: fmt.Sprintf("%s%d", prefix, i)}
	}
	return out
}

// Node is one booted machine.
type Node struct {
	Name string
	// Idx is the node's index in the cluster (and its engine's index in the
	// runner).
	Idx int
	// Eng is the node's own event engine: everything that happens on the
	// node is an event here.
	Eng   *sim.Engine
	K     *kernel.Kernel
	NIC   *netsim.NIC
	Stack *tcpsim.Stack
	// FS is the node's /proc/ktau instance. All on-node clients (monitoring
	// agents, tools) should read through it so node-level fault injection
	// reaches every reader.
	FS *procfs.FS
}

// Cluster is a booted multi-node system.
type Cluster struct {
	// Runner drives all node engines in conservative lookahead windows.
	Runner *sim.Runner
	Net    *netsim.Network
	Nodes  []*Node
	byName map[string]*Node
	RNG    *sim.RNG
}

// New boots a cluster from the config.
func New(cfg Config) *Cluster {
	if len(cfg.Nodes) == 0 {
		panic("cluster: no nodes")
	}
	if cfg.Kernel.HZ == 0 {
		cfg.Kernel = kernel.DefaultParams()
	}
	if cfg.Link.BandwidthBps == 0 {
		cfg.Link = netsim.DefaultLinkSpec()
	}
	if cfg.Link.Latency <= 0 {
		panic("cluster: link latency must be positive (it is the runner lookahead)")
	}
	if cfg.TCP.RcvPerPkt == 0 {
		cfg.TCP = tcpsim.DefaultParams()
	}
	workers := 1
	if cfg.Parallel {
		workers = cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	rng := sim.NewRNG(cfg.Seed)
	c := &Cluster{
		Net:    netsim.New(nil, cfg.Link),
		byName: make(map[string]*Node),
		RNG:    rng,
	}
	engines := make([]*sim.Engine, 0, len(cfg.Nodes))
	for i, spec := range cfg.Nodes {
		p := cfg.Kernel
		if spec.CPUs > 0 {
			p.NumCPUs = spec.CPUs
		}
		if cfg.PerNode != nil {
			cfg.PerNode(spec.Name, &p)
		}
		eng := sim.NewEngine()
		engines = append(engines, eng)
		k := kernel.NewKernel(eng, spec.Name, p, rng, cfg.Ktau)
		nic := c.Net.AttachOn(spec.Name, eng, i)
		n := &Node{
			Name:  spec.Name,
			Idx:   i,
			Eng:   eng,
			K:     k,
			NIC:   nic,
			Stack: tcpsim.NewStack(k, nic, cfg.TCP),
			FS:    procfs.New(k.Ktau()),
		}
		c.Nodes = append(c.Nodes, n)
		c.byName[spec.Name] = n
	}
	matrix := sim.NewLatencyMatrix(len(engines), cfg.Link.Latency)
	if cfg.Topology.racked(len(engines)) {
		inter := cfg.Topology.InterRackLatency
		if inter == 0 {
			inter = DefaultInterRackFactor * cfg.Link.Latency
		}
		if inter < cfg.Link.Latency {
			panic("cluster: inter-rack latency must be at least the link latency")
		}
		rack := cfg.Topology.RackSize
		for i := range engines {
			for j := range engines {
				if i != j && i/rack != j/rack {
					matrix.SetPair(i, j, inter)
				}
			}
		}
	}
	c.Runner = sim.NewPartitionedRunner(engines, matrix, workers)
	c.Net.SetCrossDeliver(func(src, dst *netsim.NIC, at sim.Time, fn func(any), arg any) {
		c.Runner.PostCall(src.Idx(), dst.Idx(), at, fn, arg)
	})
	c.Net.SetPairLatency(func(srcIdx, dstIdx int) time.Duration {
		// The wire latency of a pair IS its lookahead: NIC arrivals are
		// txFreeAt + pair latency, so they always clear the pair bound.
		return c.Runner.PairLookahead(srcIdx, dstIdx)
	})
	c.Runner.OnBarrier(c.PublishViews)
	c.PublishViews()
	return c
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NodeByName returns the named node, or nil.
func (c *Cluster) NodeByName(name string) *Node { return c.byName[name] }

// Now returns the cluster's virtual time: the end of the last completed
// window. Between windows every node clock agrees with it.
func (c *Cluster) Now() sim.Time { return c.Runner.Now() }

// PublishViews refreshes the barrier-published per-node state (currently the
// kernels' crash flags). The runner calls it at every barrier; it is also
// safe to call whenever the cluster is quiescent.
func (c *Cluster) PublishViews() {
	for _, n := range c.Nodes {
		n.K.PublishView()
	}
}

// CrossCall schedules fn on the dst node's engine one pair lookahead after
// the src node's current time — the earliest instant a cross-node action
// can deterministically take effect (one wire latency of the src→dst pair;
// self-directed calls use the global minimum). It is safe to call from
// inside src's window; deliveries merge with network traffic in the
// runner's deterministic order.
func (c *Cluster) CrossCall(src, dst int, fn func()) {
	at := c.Nodes[src].Eng.Now().Add(c.Runner.PairLookahead(src, dst))
	c.Runner.Post(src, dst, at, fn)
}

// Shutdown unwinds every task on every node (see kernel.Kernel.Shutdown).
func (c *Cluster) Shutdown() {
	for _, n := range c.Nodes {
		n.K.Shutdown()
	}
}

// RunUntilDone drives the cluster until every listed task has exited or the
// virtual deadline passes; it returns whether all finished. The deadline is
// inclusive: events scheduled exactly at it still run (the runner's final
// window is closed). Tasks whose node has crashed are treated as finished:
// they can never exit, and waiting on them would spin the deadline down for
// nothing (the work they represent is lost, which callers can observe via
// Kernel.Crashed). Completion is observed at window barriers, so the clock
// ends on a window boundary at most one lookahead past the moment the last
// task exited.
func (c *Cluster) RunUntilDone(tasks []*kernel.Task, deadline time.Duration) bool {
	settled := func(t *kernel.Task) bool {
		return t.Exited() || t.Kernel().Crashed()
	}
	allDone := func() bool {
		for _, t := range tasks {
			if !settled(t) {
				return false
			}
		}
		return true
	}
	limit := c.Runner.Now().Add(deadline)
	for {
		if allDone() {
			return true
		}
		if c.Runner.Now() >= limit {
			return false
		}
		if !c.Runner.Step(limit) {
			// Calendar drained everywhere: nothing further can change.
			return allDone()
		}
	}
}

// Settle runs the cluster for d more virtual time (letting in-flight frames,
// acks and interrupts complete) without requiring any task to finish.
func (c *Cluster) Settle(d time.Duration) {
	c.Runner.RunUntil(c.Runner.Now().Add(d))
}
