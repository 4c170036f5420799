package workload

import (
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/tcpsim"
)

// LMBenchNullSyscall measures the null-syscall cost on a node by running a
// task that performs iters getpid-style calls.
func LMBenchNullSyscall(k *kernel.Kernel, iters int) time.Duration {
	var per time.Duration
	t := k.Spawn("lat_syscall", func(u *kernel.UCtx) {
		start := u.Now()
		for i := 0; i < iters; i++ {
			u.Syscall("sys_getpid", nil)
		}
		per = u.Now().Sub(start) / time.Duration(iters)
	}, kernel.SpawnOpts{Kind: kernel.KindUser})
	driveTask(k, t, time.Minute)
	return per
}

// LMBenchCtxSwitch measures process context-switch latency with the classic
// two-process pipe ping-pong, both pinned to CPU0.
func LMBenchCtxSwitch(k *kernel.Kernel, rounds int) time.Duration {
	wqA := kernel.NewWaitQueue("lat_ctx_a")
	wqB := kernel.NewWaitQueue("lat_ctx_b")
	turnA := true
	var total time.Duration
	a := k.Spawn("lat_ctx_a", func(u *kernel.UCtx) {
		start := u.Now()
		for i := 0; i < rounds; i++ {
			u.Syscall("sys_read", func(kc *kernel.KCtx) {
				for !turnA {
					kc.Wait(wqA)
				}
				turnA = false
			})
			u.Syscall("sys_write", func(kc *kernel.KCtx) {
				wqB.WakeAll(u.Kernel())
			})
		}
		total = u.Now().Sub(start)
	}, kernel.SpawnOpts{Kind: kernel.KindUser, Affinity: kernel.AffinityCPU(0)})
	b := k.Spawn("lat_ctx_b", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			u.Syscall("sys_read", func(kc *kernel.KCtx) {
				for turnA {
					kc.Wait(wqB)
				}
				turnA = true
			})
			u.Syscall("sys_write", func(kc *kernel.KCtx) {
				wqA.WakeAll(u.Kernel())
			})
		}
	}, kernel.SpawnOpts{Kind: kernel.KindUser, Affinity: kernel.AffinityCPU(0)})
	driveTask(k, a, time.Minute)
	driveTask(k, b, time.Minute)
	// Each round is two switches (a->b, b->a).
	return total / time.Duration(2*rounds)
}

// LMBenchTCP measures small-message latency and large-transfer bandwidth
// between two connected stacks (tasks are spawned on both nodes). The
// cluster is needed to drive both nodes' engines — cross-node traffic only
// moves when the windowed runner runs.
func LMBenchTCP(c *cluster.Cluster, a, b *tcpsim.Stack, rounds, bulkBytes int) (lat time.Duration, bw float64) {
	ab, ba := tcpsim.Connect(a, b)
	var rttTotal time.Duration
	var bulkTime time.Duration
	ta := a.Kernel().Spawn("lat_tcp", func(u *kernel.UCtx) {
		start := u.Now()
		for i := 0; i < rounds; i++ {
			ab.Send(u, 1)
			ab.Recv(u, 1)
		}
		rttTotal = u.Now().Sub(start)
		bulkStart := u.Now()
		ab.Send(u, bulkBytes)
		ab.Recv(u, 1) // completion ack from the sink
		bulkTime = u.Now().Sub(bulkStart)
	}, kernel.SpawnOpts{Kind: kernel.KindUser})
	tb := b.Kernel().Spawn("lat_tcp_srv", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			ba.Recv(u, 1)
			ba.Send(u, 1)
		}
		ba.Recv(u, bulkBytes)
		ba.Send(u, 1)
	}, kernel.SpawnOpts{Kind: kernel.KindUser})
	c.RunUntilDone([]*kernel.Task{ta, tb}, 10*time.Minute)
	lat = rttTotal / time.Duration(2*rounds)
	bw = float64(bulkBytes) / bulkTime.Seconds()
	return lat, bw
}

// driveTask steps the engine until the task exits or the deadline passes.
func driveTask(k *kernel.Kernel, t *kernel.Task, limit time.Duration) {
	eng := k.Engine()
	deadline := eng.Now().Add(limit)
	for !t.Exited() && eng.Now() < deadline {
		if !eng.Step() {
			return
		}
	}
}
