package servesim

import (
	"bytes"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
)

// testSpec is a small but fully-featured deployment: 2 client nodes, 2
// server nodes, two tenants (one calm Poisson, one bursty MMPP), small
// admission queues so rejections actually happen.
func testSpec() Spec {
	return Spec{
		ClientNodes: []int{0, 1},
		ServerNodes: []int{2, 3},
		Tenants: []TenantSpec{
			{
				Name: "web", Clients: 8,
				Arrival:  ArrivalSpec{Kind: Poisson, Mean: 4 * time.Millisecond},
				Service:  200 * time.Microsecond,
				ReqBytes: 256, RespBytes: 1024,
			},
			{
				Name: "api", Clients: 6,
				Arrival: ArrivalSpec{Kind: MMPP, Mean: 6 * time.Millisecond, Burst: 10,
					CalmDwell: 40 * time.Millisecond, BurstDwell: 20 * time.Millisecond},
				Service:  400 * time.Microsecond,
				ReqBytes: 512, RespBytes: 4096,
			},
		},
		Workers:  2,
		QueueCap: 4,
		FanOut:   2,
		Duration: 250 * time.Millisecond,
		TailK:    16,
	}
}

func bootCluster(t *testing.T, seed uint64, parallel bool, workers int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("ccn", 4),
		Ktau: ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
		},
		Link:     netsim.DefaultLinkSpec(),
		Seed:     seed,
		Parallel: parallel,
		Workers:  workers,
	})
	t.Cleanup(c.Shutdown)
	return c
}

func runFleet(t *testing.T, parallel bool, workers int) (*cluster.Cluster, *Fleet) {
	t.Helper()
	c := bootCluster(t, 1234, parallel, workers)
	f, err := Deploy(c, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilDone(f.Tasks(), 5*time.Second) {
		for _, tk := range f.Tasks() {
			if !tk.Exited() {
				t.Logf("stuck: %s in %v", tk.Name(), tk.State())
			}
		}
		t.Fatal("fleet did not drain")
	}
	c.Settle(20 * time.Millisecond)
	return c, f
}

func TestFleetServesAndDrains(t *testing.T) {
	c, f := runFleet(t, false, 0)
	st := f.Stats()

	for tenant := range testSpec().Tenants {
		arr, ok, drops, lost := st.TenantCounts(tenant)
		if ok == 0 {
			t.Fatalf("tenant %d completed no requests", tenant)
		}
		if lost != 0 {
			t.Errorf("tenant %d lost %d replies without fault injection", tenant, lost)
		}
		if arr != ok+drops+lost {
			t.Errorf("tenant %d conservation broken: %d arrivals vs %d ok + %d drops + %d lost",
				tenant, arr, ok, drops, lost)
		}
		var h Hist
		st.TenantHist(tenant, &h)
		if h.Count() != ok {
			t.Errorf("tenant %d histogram count %d != ok %d", tenant, h.Count(), ok)
		}
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if p50 <= 0 || p99 < p50 || h.Max() > 5*time.Second {
			t.Errorf("tenant %d implausible latencies: p50=%v p99=%v max=%v", tenant, p50, p99, h.Max())
		}
	}

	// The bursty tenant with QueueCap 4 must actually exercise rejection.
	_, _, drops, _ := st.TenantCounts(1)
	if drops == 0 {
		t.Error("bursty tenant saw no admission-queue drops; spec not stressing the queue")
	}

	// Lifecycle timestamps of recorded tails must be monotone.
	for tenant := 0; tenant < 2; tenant++ {
		for node := 0; node < st.Nodes; node++ {
			for _, r := range st.Tails(tenant, node) {
				if !(r.Arrival <= r.SendStart && r.SendStart <= r.Admit &&
					r.Admit <= r.ServiceStart && r.ServiceStart <= r.ReplySent &&
					r.ReplySent <= r.Done) {
					t.Fatalf("non-monotone lifecycle: %+v", r)
				}
			}
		}
	}

	// Graceful close: no simulated socket may leak, on the fleet's own
	// connections or on any stack.
	if n := f.OpenConns(); n != 0 {
		t.Errorf("%d fleet connection endpoints still open", n)
	}
	for _, n := range c.Nodes {
		if open := n.Stack.OpenConns(); open != 0 {
			t.Errorf("node %s leaks %d sockets", n.Name, open)
		}
		if n.Stack.Stats.FinsSent == 0 {
			t.Errorf("node %s sent no FINs", n.Name)
		}
	}
}

// TestRequestsRecycled: a drained fault-free fleet has returned its
// recorded requests to the client nodes' free lists, which stay near the
// peak number in flight rather than the number of arrivals, and no request
// sits on them twice (a double return would hand one request to two
// arrivals).
func TestRequestsRecycled(t *testing.T) {
	_, f := runFleet(t, false, 0)
	st := f.Stats()
	var arrivals uint64
	for tenant := range testSpec().Tenants {
		arr, _, _, _ := st.TenantCounts(tenant)
		arrivals += arr
	}
	seen := map[*Request]bool{}
	for ni, fl := range f.free {
		for _, r := range fl {
			if seen[r] {
				t.Fatalf("request %p is on the free lists twice (client node %d)", r, ni)
			}
			seen[r] = true
		}
	}
	t.Logf("%d requests on the free lists after %d arrivals", len(seen), arrivals)
	if len(seen) == 0 {
		t.Fatal("no request was recycled")
	}
	if uint64(len(seen))*10 > arrivals {
		t.Errorf("free lists hold %d requests for %d arrivals, want at most a tenth", len(seen), arrivals)
	}
}

func TestFleetSerialParallelByteIdentical(t *testing.T) {
	_, fs := runFleet(t, false, 0)
	serial := fs.Stats().AppendBinary(nil)
	_, fp := runFleet(t, true, 4)
	parallel := fp.Stats().AppendBinary(nil)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("latency stores diverge: serial %d bytes, parallel %d bytes", len(serial), len(parallel))
	}
}

func TestFleetIdleTimeoutBackstop(t *testing.T) {
	c := bootCluster(t, 77, false, 0)
	spec := testSpec()
	spec.Duration = 100 * time.Millisecond
	spec.IdleTimeout = 2 * time.Second // far beyond any legitimate quiet gap
	f, err := Deploy(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilDone(f.Tasks(), 5*time.Second) {
		t.Fatal("fleet did not drain with idle watchdog armed")
	}
	c.Settle(20 * time.Millisecond)
	// Everything closed gracefully before the watchdog had to act.
	for _, n := range c.Nodes {
		if n.Stack.Stats.IdleCloses != 0 {
			t.Errorf("node %s: idle watchdog fired %d times during healthy run", n.Name, n.Stack.Stats.IdleCloses)
		}
		if open := n.Stack.OpenConns(); open != 0 {
			t.Errorf("node %s leaks %d sockets", n.Name, open)
		}
	}
}

// TestFleetDeterministicSchedule re-runs the same seed twice serially and
// expects identical stores — a guard against hidden map-iteration or
// draw-order dependence inside the fleet itself.
func TestFleetDeterministicSchedule(t *testing.T) {
	_, f1 := runFleet(t, false, 0)
	b1 := f1.Stats().AppendBinary(nil)
	_, f2 := runFleet(t, false, 0)
	b2 := f2.Stats().AppendBinary(nil)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same-seed serial runs diverge")
	}
	var h Hist
	f1.Stats().TenantHist(0, &h)
	if h.Count() == 0 {
		t.Fatal("no data recorded")
	}
}
