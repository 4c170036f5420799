package cluster

import (
	"testing"
	"time"

	"ktau/internal/kernel"
)

// pingPong boots a two-node cluster on the serial runner, one engine per
// node, where node 0 sends 8 KiB messages over TCP and node 1 answers each
// with 64 bytes, forever. It returns the cluster and the count of completed
// round trips.
func pingPong() (*Cluster, *int) {
	c := New(testConfig(2))
	ab, ba := connPair(c)
	trips := new(int)
	c.Node(0).K.Spawn("ping", func(u *kernel.UCtx) {
		for {
			ab.Send(u, 8192)
			ab.Recv(u, 64)
			*trips++
		}
	}, kernel.SpawnOpts{})
	c.Node(1).K.Spawn("pong", func(u *kernel.UCtx) {
		for {
			ba.Recv(u, 8192)
			ba.Send(u, 64)
		}
	}, kernel.SpawnOpts{})
	return c, trips
}

// TestPacketPathAllocatesNothing pins the whole simulated packet path at
// zero allocations in steady state: the system call into tcp_sendmsg, the
// NIC, the runner's cross-engine merge, the device IRQ, the softirq and the
// reader's wakeup, in both directions, per 10 ms of simulated time.
func TestPacketPathAllocatesNothing(t *testing.T) {
	c, trips := pingPong()
	defer c.Shutdown()
	// Warm up: the carrier pools, queues, post buffers and calendars grow
	// to their working size.
	c.Settle(100 * time.Millisecond)
	before := *trips
	allocs := testing.AllocsPerRun(20, func() { c.Settle(10 * time.Millisecond) })
	if n := *trips - before; n < 21 {
		t.Fatalf("%d round trips in 210 ms of simulated time, want at least one per 10 ms", n)
	}
	if allocs != 0 {
		t.Errorf("10 ms of 8 KiB/64 B round trips allocates %v times, want 0", allocs)
	}
}

// BenchmarkTCPMessage measures one 8 KiB message and its 64-byte answer
// between two nodes on the serial runner, per round trip.
func BenchmarkTCPMessage(b *testing.B) {
	c, trips := pingPong()
	defer c.Shutdown()
	c.Settle(100 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for start := *trips; *trips-start < b.N; {
		c.Settle(time.Millisecond)
	}
}
