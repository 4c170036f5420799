package mpisim

import (
	"fmt"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/sim"
	"ktau/internal/tau"
)

// testWorld builds a cluster with one rank per node.
func testWorld(t *testing.T, ranks, nodes, perNode int) (*cluster.Cluster, *World) {
	t.Helper()
	kp := kernel.DefaultParams()
	kp.CostJitter = 0
	kp.PageFaultRate = 0
	c := cluster.New(cluster.Config{
		Nodes:  cluster.UniformNodes("n", nodes),
		Kernel: kp,
		Ktau: ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true,
		},
		Seed: 77,
	})
	t.Cleanup(c.Shutdown)
	specs := make([]RankSpec, ranks)
	for i := range specs {
		specs[i] = RankSpec{Stack: c.Node((i / perNode) % nodes).Stack}
	}
	return c, NewWorld(specs, tau.DefaultOptions())
}

func TestPingPong(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	tasks := w.Launch("pp", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1000, 7)
			r.Recv(1, 8)
		} else {
			r.Recv(0, 7)
			r.Send(0, 2000, 8)
		}
	})
	if !c.RunUntilDone(tasks, 10*time.Second) {
		t.Fatal("ranks did not finish")
	}
	r0, r1 := w.Rank(0), w.Rank(1)
	if r0.Stats.BytesSent != 1000 || r0.Stats.BytesRcvd != 2000 {
		t.Errorf("rank0 bytes: %+v", r0.Stats)
	}
	if r1.Stats.BytesRcvd != 1000 || r1.Stats.BytesSent != 2000 {
		t.Errorf("rank1 bytes: %+v", r1.Stats)
	}
	// TAU profiles must show the MPI wrappers.
	if ev := r0.Profile.Find("MPI_Send()"); ev == nil || ev.Calls != 1 {
		t.Errorf("rank0 MPI_Send profile: %+v", ev)
	}
	if ev := r1.Profile.Find("MPI_Recv()"); ev == nil || ev.Calls != 1 {
		t.Errorf("rank1 MPI_Recv profile: %+v", ev)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected tag mismatch panic to propagate")
		}
	}()
	tasks := w.Launch("bad", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 10, 1)
		} else {
			r.Recv(0, 2) // wrong tag
		}
	})
	c.RunUntilDone(tasks, time.Second)
}

func TestCollectivesAllSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 13, 16} {
		n := n
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			c, w := testWorld(t, n, n, 1)
			order := make([]int, 0, n)
			tasks := w.Launch("coll", func(r *Rank) {
				r.U().Compute(time.Duration(r.ID()+1) * time.Millisecond)
				r.Barrier()
				order = append(order, r.ID())
				r.Allreduce(64)
				r.Bcast(256)
			})
			if !c.RunUntilDone(tasks, 30*time.Second) {
				t.Fatal("collective deadlocked")
			}
			if len(order) != n {
				t.Fatalf("barrier order has %d entries", len(order))
			}
		})
	}
}

func TestBarrierActuallySynchronises(t *testing.T) {
	const n = 4
	c, w := testWorld(t, n, n, 1)
	var afterBarrier []float64
	tasks := w.Launch("sync", func(r *Rank) {
		// Rank 3 computes for 50ms; others arrive immediately.
		if r.ID() == 3 {
			r.U().Compute(50 * time.Millisecond)
		}
		r.Barrier()
		afterBarrier = append(afterBarrier, r.U().Now().Seconds())
	})
	if !c.RunUntilDone(tasks, 30*time.Second) {
		t.Fatal("deadlock")
	}
	for _, ts := range afterBarrier {
		if ts < 0.050 {
			t.Errorf("a rank passed the barrier at %.3fs, before the slow rank arrived", ts)
		}
		if ts > 0.060 {
			t.Errorf("barrier release too slow: %.3fs", ts)
		}
	}
	// Fast ranks blocked in the barrier: voluntary scheduling wait ~50ms.
	if w := w.Rank(0).Task.VolWait; w < 40*time.Millisecond {
		t.Errorf("rank0 voluntary wait %v, want ~50ms (waiting in barrier)", w)
	}
}

func TestTwoRanksPerNodeShareNIC(t *testing.T) {
	// 4 ranks on 2 nodes (2 per node) vs 4 ranks on 4 nodes: the shared-NIC
	// configuration must be slower for bandwidth-bound exchanges.
	run := func(nodes, perNode int) time.Duration {
		c, w := testWorld(t, 4, nodes, perNode)
		defer c.Shutdown()
		tasks := w.Launch("bw", func(r *Rank) {
			peer := r.ID() ^ 2 // 0<->2, 1<->3: always cross-node
			for i := 0; i < 5; i++ {
				if r.ID() < 2 {
					r.Send(peer, 200_000, 1)
					r.Recv(peer, 2)
				} else {
					r.Recv(peer, 1)
					r.Send(peer, 200_000, 2)
				}
			}
		})
		if !c.RunUntilDone(tasks, 120*time.Second) {
			t.Fatal("bandwidth test deadlocked")
		}
		return c.Now().Duration()
	}
	shared := run(2, 2)
	spread := run(4, 1)
	if shared <= spread {
		t.Errorf("shared NIC (%v) should be slower than dedicated NICs (%v)", shared, spread)
	}
	if float64(shared)/float64(spread) < 1.3 {
		t.Errorf("NIC sharing penalty too small: %v vs %v", shared, spread)
	}
}

func TestMappedKernelActivityUnderMPIRecv(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	tasks := w.Launch("map", func(r *Rank) {
		if r.ID() == 0 {
			r.U().Compute(20 * time.Millisecond)
			r.Send(1, 100_000, 1)
		} else {
			r.Recv(0, 1)
		}
	})
	if !c.RunUntilDone(tasks, 30*time.Second) {
		t.Fatal("deadlock")
	}
	// Rank 1 blocked inside MPI_Recv; its kernel profile's mapped data must
	// attribute schedule_vol (and tcp activity) to the MPI_Recv() context.
	snap := c.Node(1).K.Ktau().SnapshotTask(w.Rank(1).Task.KD())
	var volUnderRecv, tcpUnderRecv int64
	for _, ms := range snap.Mapped {
		if ms.CtxName == "MPI_Recv()" {
			switch ms.EvName {
			case "schedule_vol":
				volUnderRecv += ms.Excl
			case "tcp_recvmsg", "tcp_v4_rcv":
				tcpUnderRecv += ms.Excl
			}
		}
	}
	k := c.Node(1).K
	if k.DurationOf(volUnderRecv) < 15*time.Millisecond {
		t.Errorf("voluntary wait mapped under MPI_Recv = %v, want ~20ms",
			k.DurationOf(volUnderRecv))
	}
	if tcpUnderRecv == 0 {
		t.Error("no TCP kernel time mapped under MPI_Recv")
	}
}

func TestDeterministicMPIRun(t *testing.T) {
	run := func() (time.Duration, uint64) {
		c, w := testWorld(t, 4, 2, 2)
		defer c.Shutdown()
		tasks := w.Launch("det", func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.U().Compute(2 * time.Millisecond)
				r.Allreduce(128)
			}
		})
		if !c.RunUntilDone(tasks, 30*time.Second) {
			t.Fatal("deadlock")
		}
		var vol uint64
		for i := 0; i < 4; i++ {
			vol += w.Rank(i).Task.VolSwitches
		}
		return c.Now().Duration(), vol
	}
	d1, v1 := run()
	d2, v2 := run()
	if d1 != d2 || v1 != v2 {
		t.Errorf("nondeterministic MPI run: (%v,%d) vs (%v,%d)", d1, v1, d2, v2)
	}
}

func TestRandomCommunicationSchedulesComplete(t *testing.T) {
	// Property-style: random rings of sends/recvs over random sizes never
	// deadlock with eager semantics.
	for seed := uint64(1); seed <= 5; seed++ {
		n := 3 + int(seed)%4
		c, w := testWorld(t, n, n, 1)
		rng := sim.NewRNG(seed)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 100 + rng.Intn(20_000)
		}
		tasks := w.Launch("ring", func(r *Rank) {
			next := (r.ID() + 1) % r.Size()
			prev := (r.ID() + r.Size() - 1) % r.Size()
			for round := 0; round < 4; round++ {
				r.Send(next, sizes[r.ID()], 9)
				got := r.Recv(prev, 9)
				if got != sizes[prev] {
					t.Errorf("seed %d rank %d round %d: got %d bytes, want %d",
						seed, r.ID(), round, got, sizes[prev])
				}
			}
		})
		if !c.RunUntilDone(tasks, 2*time.Minute) {
			t.Fatalf("seed %d: ring deadlocked", seed)
		}
		c.Shutdown()
	}
}
