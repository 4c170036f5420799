package kernel

import (
	"testing"
	"time"
)

// TestWaitWakeCycleAllocatesNothing pins the wait queue and the system call
// path at zero allocations: a task blocks on a WaitQueue inside a system
// call and is woken, over and over, once the queue's storage and the
// engine's pools have reached their working size.
func TestWaitWakeCycleAllocatesNothing(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	wq := NewWaitQueue("rx")
	woken := 0
	k.Spawn("waiter", func(u *UCtx) {
		for {
			u.Syscall("sys_read", func(kc *KCtx) { kc.Wait(wq) })
			woken++
		}
	}, SpawnOpts{})
	cycle := func() {
		for wq.Len() == 0 {
			if !eng.Step() {
				t.Fatal("engine ran dry before the waiter blocked")
			}
		}
		if n := wq.WakeAll(k); n != 1 {
			t.Fatalf("WakeAll woke %d tasks, want 1", n)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("wait/wake cycle allocates %v/op, want 0", allocs)
	}
	if woken < 100 {
		t.Errorf("waiter completed %d waits, want at least 100", woken)
	}
}

// TestDeferWakeAllRunsInDeferOrder: a softirq's DeferWakeAll runs at the end
// of the softirq, in the order it was deferred among the Defer'red funcs.
func TestDeferWakeAllRunsInDeferOrder(t *testing.T) {
	eng, k := testKernel(t, 1, nil)
	wq := NewWaitQueue("rx")
	var reader *Task
	reader = k.Spawn("reader", func(u *UCtx) {
		u.Syscall("sys_read", func(kc *KCtx) { kc.Wait(wq) })
	}, SpawnOpts{})
	var states []TaskState
	note := func() { states = append(states, reader.State()) }
	eng.After(5*time.Millisecond, func() {
		k.RaiseDevIRQ("eth0", func(b *BHCtx) {
			b.Charge(30 * time.Microsecond)
			b.Defer(note)
			b.DeferWakeAll(wq)
			b.Defer(note)
			note() // inside the handler, before anything deferred ran
		})
	})
	runUntilDone(t, eng, time.Second, reader)
	want := []TaskState{StateSleeping, StateSleeping, StateRunnable}
	if len(states) != len(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states %v, want %v", states, want)
		}
	}
}
