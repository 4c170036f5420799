package mpisim

import (
	"testing"
	"time"
)

// TestMsgLogCorrelates pins the flow-correlation contract: with message
// logging enabled, the sender's k-th send to (dst,tag) and the receiver's
// k-th receive from (src,tag) carry the same (Src,Dst,Tag,Seq) tuple, so
// the tuple identifies one message across both endpoints.
func TestMsgLogCorrelates(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	w.EnableMsgLog()
	const rounds = 3
	tasks := w.Launch("ml", func(r *Rank) {
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				r.Send(1, 100+i, 7)
				r.Recv(1, 8)
			} else {
				r.Recv(0, 7)
				r.Send(0, 200+i, 8)
			}
		}
	})
	if !c.RunUntilDone(tasks, 10*time.Second) {
		t.Fatal("ranks did not finish")
	}

	m0 := w.Rank(0).DrainMsgs()
	m1 := w.Rank(1).DrainMsgs()
	if len(m0) != 2*rounds || len(m1) != 2*rounds {
		t.Fatalf("events: rank0=%d rank1=%d, want %d each", len(m0), len(m1), 2*rounds)
	}
	if got := w.Rank(0).DrainMsgs(); len(got) != 0 {
		t.Fatalf("drain redelivered %d events", len(got))
	}

	type key struct {
		src, dst, tag int
		seq           uint64
	}
	sends := map[key]MsgEvent{}
	recvs := map[key]MsgEvent{}
	for _, e := range append(m0, m1...) {
		k := key{e.Src, e.Dst, e.Tag, e.Seq}
		if e.Send {
			if _, dup := sends[k]; dup {
				t.Fatalf("duplicate send key %+v", k)
			}
			sends[k] = e
		} else {
			if _, dup := recvs[k]; dup {
				t.Fatalf("duplicate recv key %+v", k)
			}
			recvs[k] = e
		}
	}
	if len(sends) != 2*rounds || len(recvs) != 2*rounds {
		t.Fatalf("sends=%d recvs=%d, want %d each", len(sends), len(recvs), 2*rounds)
	}
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			t.Fatalf("send %+v has no matching recv", k)
		}
		if r.Bytes != s.Bytes {
			t.Errorf("key %+v: sent %d bytes, received %d", k, s.Bytes, r.Bytes)
		}
		if r.EndTSC < s.StartTSC {
			t.Errorf("key %+v: recv completed at %d before send started at %d",
				k, r.EndTSC, s.StartTSC)
		}
	}
	// Seq must count 0..rounds-1 per direction.
	for i := 0; i < rounds; i++ {
		if _, ok := sends[key{0, 1, 7, uint64(i)}]; !ok {
			t.Errorf("missing 0->1 seq %d", i)
		}
		if _, ok := sends[key{1, 0, 8, uint64(i)}]; !ok {
			t.Errorf("missing 1->0 seq %d", i)
		}
	}
}

// TestMsgLogDisabledByDefault pins that the log stays empty (and costs
// nothing) unless explicitly enabled.
func TestMsgLogDisabledByDefault(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	tasks := w.Launch("off", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 10, 1)
		} else {
			r.Recv(0, 1)
		}
	})
	if !c.RunUntilDone(tasks, 10*time.Second) {
		t.Fatal("ranks did not finish")
	}
	if got := w.Rank(0).DrainMsgs(); len(got) != 0 {
		t.Fatalf("message log populated without EnableMsgLog: %d events", len(got))
	}
}

// TestDrainMsgsZeroAllocs pins a warmed message-log cycle at zero
// allocations: a send, its answer and a drain of the two logged endpoint
// events, which the rank writes into the buffer the previous drain
// returned.
func TestDrainMsgsZeroAllocs(t *testing.T) {
	c, w := testWorld(t, 2, 2, 1)
	w.EnableMsgLog()
	var allocs float64
	tasks := w.Launch("ml", func(r *Rank) {
		if r.ID() == 1 {
			for i := 0; i < 60; i++ {
				r.Recv(0, 7)
				r.Send(0, 64, 8)
			}
			return
		}
		cycle := func() {
			r.Send(1, 4096, 7)
			r.Recv(1, 8)
			if got := r.DrainMsgs(); len(got) != 2 || !got[0].Send || got[1].Send {
				t.Errorf("drain = %+v, want one send and one receive", got)
			}
		}
		for i := 0; i < 5; i++ { // warm both buffers and the sequence maps
			cycle()
		}
		allocs = testing.AllocsPerRun(50, cycle)
		for i := 0; i < 4; i++ {
			cycle()
		}
	})
	if !c.RunUntilDone(tasks, 10*time.Second) {
		t.Fatal("ranks did not finish")
	}
	if allocs != 0 {
		t.Fatalf("warmed send, receive and drain allocated %.2f times, want 0", allocs)
	}
}
