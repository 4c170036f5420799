package cluster

import (
	"testing"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/tcpsim"
)

func testConfig(nodes int) Config {
	kp := kernel.DefaultParams()
	kp.CostJitter = 0
	kp.PageFaultRate = 0
	return Config{
		Nodes:  UniformNodes("n", nodes),
		Kernel: kp,
		Ktau:   ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true},
		Seed:   1,
	}
}

func TestUniformNodes(t *testing.T) {
	specs := UniformNodes("ccn", 3)
	if len(specs) != 3 || specs[0].Name != "ccn0" || specs[2].Name != "ccn2" {
		t.Errorf("specs = %+v", specs)
	}
}

func TestClusterBootsNodes(t *testing.T) {
	c := New(testConfig(4))
	defer c.Shutdown()
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.K == nil || n.Stack == nil || n.NIC == nil {
			t.Fatalf("node %d incomplete", i)
		}
		if c.Node(i) != n || c.NodeByName(n.Name) != n {
			t.Error("node lookup inconsistent")
		}
	}
	if c.NodeByName("ghost") != nil {
		t.Error("unknown node should be nil")
	}
}

func TestPerNodeOverride(t *testing.T) {
	cfg := testConfig(3)
	cfg.Nodes[1].CPUs = 1 // the anomaly node
	cfg.PerNode = func(name string, p *kernel.Params) {
		if name == "n2" {
			p.IRQBalance = true
		}
	}
	c := New(cfg)
	defer c.Shutdown()
	if got := c.Node(0).K.NumCPUs(); got != 2 {
		t.Errorf("n0 cpus = %d, want default 2", got)
	}
	if got := c.Node(1).K.NumCPUs(); got != 1 {
		t.Errorf("anomaly node cpus = %d, want 1", got)
	}
	if !c.Node(2).K.Params().IRQBalance {
		t.Error("per-node tweak not applied")
	}
	if c.Node(0).K.Params().IRQBalance {
		t.Error("per-node tweak leaked to other nodes")
	}
}

func TestRunUntilDoneAndSettle(t *testing.T) {
	c := New(testConfig(1))
	defer c.Shutdown()
	task := c.Node(0).K.Spawn("w", func(u *kernel.UCtx) {
		u.Compute(5 * time.Millisecond)
	}, kernel.SpawnOpts{})
	if !c.RunUntilDone([]*kernel.Task{task}, time.Second) {
		t.Fatal("task did not finish")
	}
	before := c.Now()
	c.Settle(3 * time.Millisecond)
	if c.Now().Sub(before) < 3*time.Millisecond {
		t.Error("settle did not advance virtual time")
	}
}

func TestRunUntilDoneTimesOut(t *testing.T) {
	c := New(testConfig(1))
	defer c.Shutdown()
	task := c.Node(0).K.Spawn("forever", func(u *kernel.UCtx) {
		u.Sleep(time.Hour)
	}, kernel.SpawnOpts{})
	if c.RunUntilDone([]*kernel.Task{task}, 10*time.Millisecond) {
		t.Error("RunUntilDone should report failure on deadline")
	}
}

func TestCrossNodeTrafficWorks(t *testing.T) {
	c := New(testConfig(2))
	defer c.Shutdown()
	ab, ba := connPair(c)
	snd := c.Node(0).K.Spawn("s", func(u *kernel.UCtx) { ab.Send(u, 4000) }, kernel.SpawnOpts{})
	rcv := c.Node(1).K.Spawn("r", func(u *kernel.UCtx) { ba.Recv(u, 4000) }, kernel.SpawnOpts{})
	if !c.RunUntilDone([]*kernel.Task{snd, rcv}, time.Second) {
		t.Fatal("transfer did not finish")
	}
}

func TestSettleIncludesHorizonInstant(t *testing.T) {
	// Regression: the deadline comparison used to be strict, so an event
	// scheduled exactly at the horizon never ran. The final window is closed.
	c := New(testConfig(2))
	defer c.Shutdown()
	fired := false
	c.Node(1).Eng.At(c.Now().Add(50*time.Millisecond), func() { fired = true })
	c.Settle(50 * time.Millisecond)
	if !fired {
		t.Error("event exactly at the Settle horizon did not fire")
	}
}

func TestParallelClusterUsesWorkers(t *testing.T) {
	cfg := testConfig(4)
	cfg.Parallel = true
	cfg.Workers = 3
	c := New(cfg)
	defer c.Shutdown()
	if got := c.Runner.Workers(); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
	ab, ba := connPair(c)
	snd := c.Node(0).K.Spawn("s", func(u *kernel.UCtx) { ab.Send(u, 4000) }, kernel.SpawnOpts{})
	rcv := c.Node(1).K.Spawn("r", func(u *kernel.UCtx) { ba.Recv(u, 4000) }, kernel.SpawnOpts{})
	if !c.RunUntilDone([]*kernel.Task{snd, rcv}, time.Second) {
		t.Fatal("transfer did not finish under the parallel runner")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	// A minimal config gets kernel params, link spec and TCP params.
	c := New(Config{Nodes: UniformNodes("x", 1), Seed: 2})
	defer c.Shutdown()
	if c.Node(0).K.Params().HZ == 0 {
		t.Error("kernel defaults missing")
	}
	if c.Net.Spec().BandwidthBps == 0 {
		t.Error("link defaults missing")
	}
}

func TestEmptyClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

// connPair opens a connection between node 0 and node 1.
func connPair(c *Cluster) (*tcpsim.Conn, *tcpsim.Conn) {
	return tcpsim.Connect(c.Node(0).Stack, c.Node(1).Stack)
}

func TestRackedTopologyPartitionsRunner(t *testing.T) {
	cfg := testConfig(8)
	cfg.Topology = Topology{RackSize: 4}
	c := New(cfg)
	defer c.Shutdown()
	groups := c.Runner.Groups()
	if len(groups) != 2 || len(groups[0]) != 4 || len(groups[1]) != 4 {
		t.Fatalf("groups = %v, want two racks of 4", groups)
	}
	link := c.Net.Spec().Latency
	if got := c.Runner.PairLookahead(0, 1); got != link {
		t.Errorf("intra-rack pair lookahead = %v, want link latency %v", got, link)
	}
	if got := c.Runner.PairLookahead(0, 5); got != DefaultInterRackFactor*link {
		t.Errorf("inter-rack pair lookahead = %v, want %v", got, DefaultInterRackFactor*link)
	}
	if got := c.Runner.EpochSpan(); got != DefaultInterRackFactor*link {
		t.Errorf("epoch span = %v, want %v", got, DefaultInterRackFactor*link)
	}
}

func TestRackedClusterCrossRackTraffic(t *testing.T) {
	// End-to-end transfer between nodes in different racks, serial and
	// parallel, with the partitioned runner active.
	for _, workers := range []int{0, 3} {
		cfg := testConfig(6)
		cfg.Topology = Topology{RackSize: 3, InterRackLatency: 500 * time.Microsecond}
		if workers > 0 {
			cfg.Parallel = true
			cfg.Workers = workers
		}
		c := New(cfg)
		if got := len(c.Runner.Groups()); got != 2 {
			t.Fatalf("racked cluster has %d runner groups, want 2 racks", got)
		}
		ab, ba := tcpsim.Connect(c.Node(0).Stack, c.Node(4).Stack)
		snd := c.Node(0).K.Spawn("s", func(u *kernel.UCtx) { ab.Send(u, 4000) }, kernel.SpawnOpts{})
		rcv := c.Node(4).K.Spawn("r", func(u *kernel.UCtx) { ba.Recv(u, 4000) }, kernel.SpawnOpts{})
		done := c.RunUntilDone([]*kernel.Task{snd, rcv}, time.Second)
		c.Shutdown()
		if !done {
			t.Fatalf("workers=%d: cross-rack transfer did not finish", workers)
		}
	}
}

func TestRackedTopologyDegenerateIsUniform(t *testing.T) {
	// RackSize >= node count (or 0) must leave the runner flat: one
	// single-node group per node, meeting at every link latency, so uniform
	// baselines stay valid.
	for _, rack := range []int{0, 8, 100} {
		cfg := testConfig(8)
		cfg.Topology = Topology{RackSize: rack}
		c := New(cfg)
		groups := c.Runner.Groups()
		if len(groups) != 8 {
			t.Errorf("RackSize=%d: groups = %v, want 8 single-node groups", rack, groups)
		}
		for i, g := range groups {
			if len(g) != 1 || g[0] != i {
				t.Errorf("RackSize=%d: group %d = %v, want [%d]", rack, i, g, i)
			}
		}
		if got, link := c.Runner.EpochSpan(), c.Net.Spec().Latency; got != link {
			t.Errorf("RackSize=%d: epoch span = %v, want link latency %v", rack, got, link)
		}
		c.Shutdown()
	}
}

func TestInterRackLatencyBelowLinkPanics(t *testing.T) {
	cfg := testConfig(4)
	cfg.Topology = Topology{RackSize: 2, InterRackLatency: time.Nanosecond}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for inter-rack latency below link latency")
		}
	}()
	New(cfg)
}
