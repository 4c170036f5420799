package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"ktau/internal/sim"
)

func testNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, DefaultLinkSpec())
}

func TestFrameDeliveryLatency(t *testing.T) {
	eng, n := testNet(t)
	a := n.Attach("a")
	b := n.Attach("b")
	var arrived sim.Time
	b.OnRx = func() { arrived = eng.Now() }
	a.Send(Frame{Dst: "b", Bytes: 1000})
	eng.Run()
	// 1000B at 100Mb/s = 80us wire + 60us latency.
	want := 140 * time.Microsecond
	if got := arrived.Duration(); got != want {
		t.Errorf("arrival at %v, want %v", got, want)
	}
	if b.RxPending() != 1 {
		t.Errorf("rx pending = %d", b.RxPending())
	}
}

func TestNICSerializesTransmits(t *testing.T) {
	eng, n := testNet(t)
	a := n.Attach("a")
	b := n.Attach("b")
	var arrivals []sim.Time
	b.OnRx = func() { arrivals = append(arrivals, eng.Now()) }
	for i := 0; i < 3; i++ {
		a.Send(Frame{Dst: "b", Bytes: 1250}) // 100us each on the wire
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	for i := 1; i < 3; i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap != 100*time.Microsecond {
			t.Errorf("inter-arrival %d = %v, want 100us (serialized)", i, gap)
		}
	}
}

func TestTwoSendersIndependentLinks(t *testing.T) {
	eng, n := testNet(t)
	a, b, c := n.Attach("a"), n.Attach("b"), n.Attach("c")
	_ = b
	var arrivals []sim.Time
	c.OnRx = func() { arrivals = append(arrivals, eng.Now()) }
	// a and b each send one frame to c at t=0; their links are independent,
	// so both arrive at the same time.
	a.Send(Frame{Dst: "c", Bytes: 1250})
	n.Attach("b").Send(Frame{Dst: "c", Bytes: 1250})
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != arrivals[1] {
		t.Errorf("independent senders serialized: %v vs %v", arrivals[0], arrivals[1])
	}
}

func TestLoopbackBypassesWire(t *testing.T) {
	eng, n := testNet(t)
	a := n.Attach("a")
	var arrived sim.Time
	a.OnRx = func() { arrived = eng.Now() }
	a.Send(Frame{Dst: "a", Bytes: 1448})
	eng.Run()
	if got := arrived.Duration(); got > 30*time.Microsecond {
		t.Errorf("loopback took %v, should be ~10-20us", got)
	}
	if a.TxBacklog() != 0 {
		t.Error("loopback must not consume wire bandwidth")
	}
}

func TestDrainBudget(t *testing.T) {
	eng, n := testNet(t)
	a, b := n.Attach("a"), n.Attach("b")
	for i := 0; i < 5; i++ {
		a.Send(Frame{Dst: "b", Bytes: 100})
	}
	eng.Run()
	got := b.Drain(3)
	if len(got) != 3 || b.RxPending() != 2 {
		t.Errorf("drain(3) = %d frames, pending %d", len(got), b.RxPending())
	}
	rest := b.Drain(0) // 0 = all
	if len(rest) != 2 || b.RxPending() != 0 {
		t.Errorf("drain rest = %d, pending %d", len(rest), b.RxPending())
	}
}

func TestSendToUnknownNodePanics(t *testing.T) {
	_, n := testNet(t)
	a := n.Attach("a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Send(Frame{Dst: "ghost", Bytes: 10})
}

func TestStatsAccumulate(t *testing.T) {
	eng, n := testNet(t)
	a, b := n.Attach("a"), n.Attach("b")
	a.Send(Frame{Dst: "b", Bytes: 500})
	a.Send(Frame{Dst: "b", Bytes: 700})
	eng.Run()
	if n.Stats.Frames != 2 || n.Stats.Bytes != 1200 {
		t.Errorf("net stats = %+v", n.Stats)
	}
	if a.Stats.TxFrames != 2 || b.Stats.RxBytes != 1200 {
		t.Errorf("nic stats tx=%+v rx=%+v", a.Stats, b.Stats)
	}
}

func TestAttachIdempotent(t *testing.T) {
	_, n := testNet(t)
	if n.Attach("x") != n.Attach("x") {
		t.Error("Attach created a second NIC for the same node")
	}
}

func TestBandwidthConservationProperty(t *testing.T) {
	// Property: for any burst of frames from one NIC, the last arrival time
	// is at least latency + sum of transmit times (the link cannot carry
	// more than its bandwidth), and exactly that when sent back-to-back.
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 50 {
			return true
		}
		eng := sim.NewEngine()
		n := New(eng, DefaultLinkSpec())
		a, b := n.Attach("a"), n.Attach("b")
		var last sim.Time
		b.OnRx = func() { last = eng.Now() }
		var wire int64
		for _, s := range sizes {
			bytes := int(s%1400) + 64
			wire += int64(bytes)
			a.Send(Frame{Dst: "b", Bytes: bytes})
		}
		eng.Run()
		txTotal := time.Duration(wire * 8 * int64(time.Second) / n.Spec().BandwidthBps)
		want := txTotal + n.Spec().Latency
		got := last.Duration()
		// Allow 1ns-per-frame rounding.
		slack := time.Duration(len(sizes)) * time.Nanosecond
		return got >= want-slack && got <= want+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFrameOrderPreservedPerFlow(t *testing.T) {
	eng, n := testNet(t)
	a, b := n.Attach("a"), n.Attach("b")
	sent := []int{100, 1400, 64, 900, 1250}
	for _, s := range sent {
		a.Send(Frame{Dst: "b", Bytes: s, Payload: s})
	}
	eng.Run()
	got := b.Drain(0)
	if len(got) != len(sent) {
		t.Fatalf("received %d frames", len(got))
	}
	for i, f := range got {
		if f.Payload.(int) != sent[i] {
			t.Fatalf("frame order violated: %v", got)
		}
	}
}

// TestCarriersGoHomeAcrossEngines: a delivery carrier belongs to the NIC
// that sent it and returns to that NIC from the destination's engine, so
// one-way traffic across engines reuses the sender's carriers and allocates
// nothing once warm, while the receiver never holds a carrier.
func TestCarriersGoHomeAcrossEngines(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	n := New(nil, DefaultLinkSpec())
	a, b := n.AttachOn("a", ea, 0), n.AttachOn("b", eb, 1)
	// A stand-in for the runner's merge: run the delivery on the
	// destination's engine.
	n.SetCrossDeliver(func(src, dst *NIC, at sim.Time, fn func(any), arg any) {
		dst.Engine().AtCall(at, fn, arg)
	})
	got := 0
	b.OnRx = func() {
		for _, f := range b.Drain(0) {
			if f.Src != "a" || f.Bytes != 1000 || f.Count != uint64(got) {
				t.Fatalf("frame %d arrived as %+v", got, f)
			}
			got++
		}
	}
	sent := 0
	send := func() {
		for i := 0; i < 3; i++ {
			a.Send(Frame{Dst: "b", Bytes: 1000, Count: uint64(sent)})
			sent++
		}
		eb.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("one-way cross-engine sends allocate %v per round, want 0", allocs)
	}
	if got != sent {
		t.Errorf("%d of %d frames arrived", got, sent)
	}
	if pooled := len(a.freeDel) + len(a.retDel); pooled != 3 {
		t.Errorf("sender holds %d carriers after its sends landed, want 3", pooled)
	}
	if held := len(b.freeDel) + len(b.retDel); held != 0 {
		t.Errorf("receiver holds %d carriers, want 0", held)
	}
}
