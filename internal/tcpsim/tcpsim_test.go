package tcpsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/sim"
)

// rig builds two nodes joined by a network, with TCP stacks.
func rig(t *testing.T, mutK func(*kernel.Params), mutT func(*Params)) (*sim.Engine, *Stack, *Stack) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	net := netsim.New(eng, netsim.DefaultLinkSpec())
	mk := func(name string) *Stack {
		p := kernel.DefaultParams()
		p.CostJitter = 0
		p.PageFaultRate = 0
		if mutK != nil {
			mutK(&p)
		}
		k := kernel.NewKernel(eng, name, p, rng, ktau.Options{
			Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
		})
		t.Cleanup(k.Shutdown)
		tp := DefaultParams()
		if mutT != nil {
			mutT(&tp)
		}
		return NewStack(k, net.Attach(name), tp)
	}
	return eng, mk("nodeA"), mk("nodeB")
}

func drive(t *testing.T, eng *sim.Engine, deadline time.Duration, tasks ...*kernel.Task) {
	t.Helper()
	limit := eng.Now().Add(deadline)
	for eng.Now() < limit {
		all := true
		for _, tk := range tasks {
			if !tk.Exited() {
				all = false
				break
			}
		}
		if all {
			return
		}
		if !eng.Step() {
			t.Fatal("engine dry")
		}
	}
	for _, tk := range tasks {
		if !tk.Exited() {
			t.Fatalf("task %s stuck in %v", tk.Name(), tk.State())
		}
	}
}

func TestSendRecvDeliversBytes(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	const n = 10_000
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		ab.Send(u, n)
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		ba.Recv(u, n)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, sender, receiver)

	if ba.Stats.BytesRcvd != n || ab.Stats.BytesSent != n {
		t.Errorf("bytes sent/rcvd = %d/%d, want %d", ab.Stats.BytesSent, ba.Stats.BytesRcvd, n)
	}
	if ba.Available() != 0 {
		t.Errorf("leftover bytes: %d", ba.Available())
	}
	// 10KB at 100Mb/s is ~0.8ms of wire; the whole exchange should finish
	// within a few ms.
	if end := eng.Now().Duration(); end > 10*time.Millisecond {
		t.Errorf("transfer took %v, expected ~2ms", end)
	}
}

func TestKtauEventStructureOfSend(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		ab.Send(u, 5000)
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		ba.Recv(u, 5000)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, sender, receiver)
	// Let in-flight acks land before inspecting profiles.
	eng.RunUntil(eng.Now().Add(5 * time.Millisecond))

	// Sender-side: sys_writev > sock_sendmsg > tcp_sendmsg nesting.
	snap := a.Kernel().Ktau().SnapshotTask(sender.KD())
	wv := snap.FindEvent("sys_writev")
	sm := snap.FindEvent("sock_sendmsg")
	tm := snap.FindEvent("tcp_sendmsg")
	if wv == nil || sm == nil || tm == nil {
		t.Fatalf("missing send-side events: %v %v %v", wv, sm, tm)
	}
	if wv.Calls != 1 || sm.Calls != 1 || tm.Calls != 1 {
		t.Errorf("call counts: writev=%d sock=%d tcp=%d, want 1 each", wv.Calls, sm.Calls, tm.Calls)
	}
	if !(wv.Incl >= sm.Incl && sm.Incl >= tm.Incl) {
		t.Errorf("inclusive nesting violated: %d %d %d", wv.Incl, sm.Incl, tm.Incl)
	}
	// Receiver-side syscall context: tcp_recvmsg under sys_read.
	rsnap := b.Kernel().Ktau().SnapshotTask(receiver.KD())
	rd := rsnap.FindEvent("sys_read")
	rm := rsnap.FindEvent("tcp_recvmsg")
	if rd == nil || rm == nil || rd.Incl < rm.Incl {
		t.Fatalf("recv-side nesting wrong: %v %v", rd, rm)
	}
	// tcp_v4_rcv must appear on the receiver NODE in interrupt context
	// (kernel-wide view), 4 data segments for 5000B at 1448 MTU.
	kw := b.Kernel().Ktau().KernelWide()
	rcv := kw.FindEvent("tcp_v4_rcv")
	if rcv == nil || rcv.Calls < 4 {
		t.Fatalf("tcp_v4_rcv kernel-wide: %+v, want >=4 calls", rcv)
	}
	soft := kw.FindEvent("do_softirq")
	if soft == nil || soft.Calls == 0 {
		t.Error("no do_softirq activity on receiver node")
	}
	// The sender node processes (delayed) acks in its softirq: 5000B is 4
	// segments, acked once per ~2 segments.
	akw := a.Kernel().Ktau().KernelWide()
	if av := akw.FindEvent("tcp_v4_rcv"); av == nil || av.Calls < 1 {
		t.Errorf("sender node saw no ack processing: %+v", av)
	}
}

func TestBlockedRecvIsVoluntaryWait(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		u.Compute(30 * time.Millisecond) // delay before sending
		ab.Send(u, 1000)
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		ba.Recv(u, 1000)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, sender, receiver)
	if receiver.VolWait < 25*time.Millisecond {
		t.Errorf("receiver voluntary wait %v, want ~30ms", receiver.VolWait)
	}
	// The voluntary wait must appear nested inside sys_read in the profile:
	// sys_read inclusive covers the wait, exclusive does not.
	snap := b.Kernel().Ktau().SnapshotTask(receiver.KD())
	rd := snap.FindEvent("sys_read")
	vol := snap.FindEvent("schedule_vol")
	if rd == nil || vol == nil {
		t.Fatal("missing events")
	}
	k := b.Kernel()
	if k.DurationOf(rd.Incl) < 25*time.Millisecond {
		t.Errorf("sys_read inclusive %v should cover the blocked wait", k.DurationOf(rd.Incl))
	}
	if k.DurationOf(rd.Excl) > 5*time.Millisecond {
		t.Errorf("sys_read exclusive %v should exclude the blocked wait", k.DurationOf(rd.Excl))
	}
	if k.DurationOf(vol.Excl) < 25*time.Millisecond {
		t.Errorf("schedule_vol %v should hold the wait", k.DurationOf(vol.Excl))
	}
}

func TestWindowBlocksSender(t *testing.T) {
	eng, a, b := rig(t, nil, func(p *Params) { p.SndBuf = 4 * 1024 })
	ab, ba := Connect(a, b)
	const n = 200_000
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		ab.Send(u, n)
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		ba.Recv(u, n)
	}, kernel.SpawnOpts{})
	drive(t, eng, 10*time.Second, sender, receiver)
	if ba.Stats.BytesRcvd != n {
		t.Fatalf("bytes received = %d, want %d", ba.Stats.BytesRcvd, n)
	}
	if sender.VolSwitches == 0 {
		t.Error("sender never blocked despite a 4KB window on a 200KB transfer")
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	const n = 50_000
	ta := a.Kernel().Spawn("a", func(u *kernel.UCtx) {
		ab.Send(u, n)
		ab.Recv(u, n)
	}, kernel.SpawnOpts{})
	tb := b.Kernel().Spawn("b", func(u *kernel.UCtx) {
		ba.Send(u, n)
		ba.Recv(u, n)
	}, kernel.SpawnOpts{})
	drive(t, eng, 10*time.Second, ta, tb)
	if ab.Stats.BytesRcvd != n || ba.Stats.BytesRcvd != n {
		t.Errorf("bidirectional bytes: %d / %d, want %d each", ab.Stats.BytesRcvd, ba.Stats.BytesRcvd, n)
	}
}

func TestLoopbackSameNode(t *testing.T) {
	eng, a, _ := rig(t, nil, nil)
	// Connect a node to itself: two tasks on nodeA.
	c1, c2 := Connect(a, a)
	t1 := a.Kernel().Spawn("p1", func(u *kernel.UCtx) { c1.Send(u, 20_000) }, kernel.SpawnOpts{})
	t2 := a.Kernel().Spawn("p2", func(u *kernel.UCtx) { c2.Recv(u, 20_000) }, kernel.SpawnOpts{})
	drive(t, eng, time.Second, t1, t2)
	if c2.Stats.BytesRcvd != 20_000 {
		t.Errorf("loopback bytes = %d", c2.Stats.BytesRcvd)
	}
}

func TestCacheMissFactorRaisesRcvCost(t *testing.T) {
	perCall := func(factor float64, pinRecvCPU int, irqPin int) float64 {
		eng := sim.NewEngine()
		rng := sim.NewRNG(5)
		net := netsim.New(eng, netsim.DefaultLinkSpec())
		kp := kernel.DefaultParams()
		kp.CostJitter = 0
		kp.PageFaultRate = 0
		kp.IRQPinCPU = irqPin
		mkk := func(name string) *kernel.Kernel {
			return kernel.NewKernel(eng, name, kp, rng, ktau.Options{
				Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
			})
		}
		ka, kb := mkk("a"), mkk("b")
		defer ka.Shutdown()
		defer kb.Shutdown()
		tp := DefaultParams()
		tp.CacheMissFactor = factor
		sa := NewStack(ka, net.Attach("a"), tp)
		sb := NewStack(kb, net.Attach("b"), tp)
		ab, ba := Connect(sa, sb)
		snd := ka.Spawn("s", func(u *kernel.UCtx) { ab.Send(u, 100_000) }, kernel.SpawnOpts{})
		rcv := kb.Spawn("r", func(u *kernel.UCtx) { ba.Recv(u, 100_000) },
			kernel.SpawnOpts{Affinity: kernel.AffinityCPU(pinRecvCPU)})
		for (!snd.Exited() || !rcv.Exited()) && eng.Step() {
		}
		kw := kb.Ktau().KernelWide()
		ev := kw.FindEvent("tcp_v4_rcv")
		if ev == nil || ev.Calls == 0 {
			return 0
		}
		return float64(ev.Excl) / float64(ev.Calls)
	}
	// Receiver pinned to CPU1 while IRQs (softirq) land on CPU0: every data
	// packet crosses CPUs. Compare factor 1.0 vs 1.25.
	base := perCall(1.0, 1, 0)
	miss := perCall(1.25, 1, 0)
	if base == 0 || miss == 0 {
		t.Fatal("no tcp_v4_rcv samples")
	}
	ratio := miss / base
	if ratio < 1.15 || ratio > 1.35 {
		t.Errorf("cross-CPU cost ratio = %.3f, want ~1.25", ratio)
	}
	// Receiver on CPU0 (same as softirq): factor must not apply.
	same := perCall(1.25, 0, 0)
	if r := same / base; r < 0.9 || r > 1.1 {
		t.Errorf("same-CPU ratio = %.3f, want ~1.0", r)
	}
}

func TestAtomicPacketSizesRecorded(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	snd := a.Kernel().Spawn("s", func(u *kernel.UCtx) { ab.Send(u, 3000) }, kernel.SpawnOpts{})
	rcv := b.Kernel().Spawn("r", func(u *kernel.UCtx) { ba.Recv(u, 3000) }, kernel.SpawnOpts{})
	drive(t, eng, time.Second, snd, rcv)
	kw := b.Kernel().Ktau().KernelWide()
	var found bool
	for _, at := range kw.Atomics {
		if at.Name == "tcp_pkt_bytes" {
			found = true
			if at.Count != 3 || at.Sum != 3000 {
				t.Errorf("pkt size atomic: count=%d sum=%v, want 3/3000", at.Count, at.Sum)
			}
			if at.Max != 1448 {
				t.Errorf("max pkt = %v, want 1448", at.Max)
			}
		}
	}
	if !found {
		t.Error("tcp_pkt_bytes atomic event missing")
	}
}

func TestManySmallMessagesLatency(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	const rounds = 20
	var rtts []time.Duration
	ta := a.Kernel().Spawn("ping", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			start := u.Now()
			ab.Send(u, 64)
			ab.Recv(u, 64)
			rtts = append(rtts, u.Now().Sub(start))
		}
	}, kernel.SpawnOpts{})
	tb := b.Kernel().Spawn("pong", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			ba.Recv(u, 64)
			ba.Send(u, 64)
		}
	}, kernel.SpawnOpts{})
	drive(t, eng, 10*time.Second, ta, tb)
	if len(rtts) != rounds {
		t.Fatalf("rounds = %d", len(rtts))
	}
	for _, r := range rtts {
		// Era-plausible small-message RTT over 100Mb ethernet: a few hundred
		// microseconds; must not balloon past 3ms (tick-limited wakeups
		// would indicate a scheduling bug).
		if r < 100*time.Microsecond || r > 3*time.Millisecond {
			t.Errorf("RTT %v out of plausible range", r)
		}
	}
}

func TestCloseDeliversEOFAfterData(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	if a.OpenConns() != 1 || b.OpenConns() != 1 {
		t.Fatalf("open conns = %d/%d, want 1/1", a.OpenConns(), b.OpenConns())
	}
	const n = 5_000
	var tailOK, eofOK bool
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		ab.Send(u, n)
		ab.Close(u)
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		tailOK = ba.Recv(u, n)
		eofOK = ba.Recv(u, 1)
		ba.Close(u)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, sender, receiver)
	// Let the last FIN cross the wire and be processed by the softirq.
	settle := eng.Now().Add(50 * time.Millisecond)
	for eng.Now() < settle && eng.Step() {
	}

	if !tailOK {
		t.Error("data before FIN should be fully readable")
	}
	if eofOK {
		t.Error("read past FIN should report EOF")
	}
	if a.OpenConns() != 0 || b.OpenConns() != 0 {
		t.Errorf("open conns after close = %d/%d, want 0/0", a.OpenConns(), b.OpenConns())
	}
	if a.Stats.FinsSent != 1 || b.Stats.FinsRcvd != 1 || b.Stats.FinsSent != 1 || a.Stats.FinsRcvd != 1 {
		t.Errorf("fin counts: a sent=%d rcvd=%d, b sent=%d rcvd=%d",
			a.Stats.FinsSent, a.Stats.FinsRcvd, b.Stats.FinsSent, b.Stats.FinsRcvd)
	}
	if !ba.Closed() || !ba.PeerClosed() || !ab.Closed() {
		t.Error("close state not fully propagated")
	}
}

func TestCloseWakesBlockedReader(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	got := true
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		got = ba.Recv(u, 100) // blocks: no data will ever come
	}, kernel.SpawnOpts{})
	closer := a.Kernel().Spawn("closer", func(u *kernel.UCtx) {
		u.Sleep(5 * time.Millisecond)
		ab.Close(u)
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, receiver, closer)
	if got {
		t.Error("blocked reader should observe EOF, not complete")
	}
}

func TestRecvTimeoutSeesEOFBeforeDeadline(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	var done sim.Time
	got := true
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		got = ba.RecvTimeout(u, 100, 10*time.Second)
		done = u.Now()
	}, kernel.SpawnOpts{})
	closer := a.Kernel().Spawn("closer", func(u *kernel.UCtx) {
		ab.Close(u)
	}, kernel.SpawnOpts{})
	drive(t, eng, 15*time.Second, receiver, closer)
	if got {
		t.Error("RecvTimeout should fail on EOF")
	}
	if done.Duration() >= 10*time.Second {
		t.Errorf("RecvTimeout waited for the deadline (%v) instead of bailing at EOF", done.Duration())
	}
}

// TestTimeoutsExpireAtDeadline: with a peer that neither sends nor returns
// window credit, RecvTimeout and SendTimeout both give up once their
// deadline passes, released by the deadline timer from their blocked wait.
func TestTimeoutsExpireAtDeadline(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, _ := Connect(a, b)
	b.Kernel().Crash() // b's receive path is dead: nothing sent, nothing acked
	const d = 5 * time.Millisecond
	recvOK, sendOK := true, true
	var start, recvAt, sendAt sim.Time
	reader := a.Kernel().Spawn("reader", func(u *kernel.UCtx) {
		start = u.Now()
		recvOK = ab.RecvTimeout(u, 100, d)
		recvAt = u.Now()
	}, kernel.SpawnOpts{})
	writer := a.Kernel().Spawn("writer", func(u *kernel.UCtx) {
		sendOK = ab.SendTimeout(u, 4*a.Params().SndBuf, d)
		sendAt = u.Now()
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, reader, writer)
	if recvOK || sendOK {
		t.Fatalf("RecvTimeout = %v, SendTimeout = %v; want both to time out", recvOK, sendOK)
	}
	for name, at := range map[string]sim.Time{"RecvTimeout": recvAt, "SendTimeout": sendAt} {
		if waited := at.Sub(start); waited < d || waited > d+time.Millisecond {
			t.Errorf("%s returned after %v, want just past its %v deadline", name, waited, d)
		}
	}
}

func TestIdleTimeoutReapsAbandonedConn(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	ab.SetIdleTimeout(50 * time.Millisecond)
	ba.SetIdleTimeout(50 * time.Millisecond)
	limit := eng.Now().Add(500 * time.Millisecond)
	for eng.Now() < limit && eng.Step() {
	}
	if !ab.Closed() || !ba.Closed() {
		t.Fatal("abandoned endpoints should be reaped by the idle watchdog")
	}
	if a.OpenConns() != 0 || b.OpenConns() != 0 {
		t.Errorf("open conns = %d/%d, want 0/0", a.OpenConns(), b.OpenConns())
	}
	if a.Stats.IdleCloses != 1 || b.Stats.IdleCloses != 1 {
		t.Errorf("idle closes = %d/%d, want 1/1", a.Stats.IdleCloses, b.Stats.IdleCloses)
	}
}

func TestIdleTimeoutSparesActiveConn(t *testing.T) {
	eng, a, b := rig(t, nil, nil)
	ab, ba := Connect(a, b)
	ab.SetIdleTimeout(50 * time.Millisecond)
	ba.SetIdleTimeout(50 * time.Millisecond)
	const rounds, chunk = 5, 2_000
	sender := a.Kernel().Spawn("sender", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			u.Sleep(30 * time.Millisecond) // under the timeout, but close
			ab.Send(u, chunk)
		}
	}, kernel.SpawnOpts{})
	receiver := b.Kernel().Spawn("receiver", func(u *kernel.UCtx) {
		for i := 0; i < rounds; i++ {
			if !ba.Recv(u, chunk) {
				t.Error("active connection reaped mid-transfer")
				return
			}
		}
	}, kernel.SpawnOpts{})
	drive(t, eng, time.Second, sender, receiver)
	if ba.Stats.BytesRcvd != rounds*chunk {
		t.Errorf("bytes received = %d, want %d", ba.Stats.BytesRcvd, rounds*chunk)
	}
	// After the traffic stops both ends go quiet and the watchdog reaps them.
	limit := eng.Now().Add(500 * time.Millisecond)
	for eng.Now() < limit && eng.Step() {
	}
	if a.OpenConns() != 0 || b.OpenConns() != 0 {
		t.Errorf("open conns after quiesce = %d/%d, want 0/0", a.OpenConns(), b.OpenConns())
	}
}

// TestConcurrentConnectsCountExactly opens connections to one shared stack
// from 8 goroutines at once, as agents on different workers of the
// partitioned runner do when they reconnect to a new collector in the same
// epoch. Every connection must be counted on both ends (check.sh runs this
// package under -race).
func TestConcurrentConnectsCountExactly(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	net := netsim.New(eng, netsim.DefaultLinkSpec())
	mk := func(name string) *Stack {
		k := kernel.NewKernel(eng, name, kernel.DefaultParams(), rng, ktau.Options{})
		t.Cleanup(k.Shutdown)
		return NewStack(k, net.Attach(name), DefaultParams())
	}
	const openers, conns = 8, 500
	shared := mk("collector")
	stacks := make([]*Stack, openers)
	for i := range stacks {
		stacks[i] = mk(fmt.Sprintf("node%d", i))
	}
	var wg sync.WaitGroup
	for _, s := range stacks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < conns; i++ {
				Connect(s, shared)
			}
		}()
	}
	wg.Wait()
	if got := shared.OpenConns(); got != openers*conns {
		t.Errorf("shared stack has %d open connections, want %d", got, openers*conns)
	}
	if got := shared.Stats.ConnsOpened; got != openers*conns {
		t.Errorf("shared stack counted %d opened connections, want %d", got, openers*conns)
	}
	for i, s := range stacks {
		if s.OpenConns() != conns || s.Stats.ConnsOpened != conns {
			t.Errorf("node%d: %d open, %d opened, want %d each", i, s.OpenConns(), s.Stats.ConnsOpened, conns)
		}
	}
}
