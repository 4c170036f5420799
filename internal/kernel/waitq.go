package kernel

import "ktau/internal/sim"

// WaitQueue is a kernel wait queue: tasks block on it via KCtx.Wait and are
// released by WakeOne/WakeAll (typically from interrupt bottom halves or
// other tasks' system calls).
type WaitQueue struct {
	// Name identifies the queue in diagnostics.
	Name    string
	waiters sim.Queue[*Task]
}

// NewWaitQueue returns a named empty wait queue.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{Name: name}
}

func (wq *WaitQueue) add(t *Task) {
	wq.waiters.Push(t)
}

// Len reports the number of enqueued waiters (some may already have been
// signal-woken and will be skipped on the next wake).
func (wq *WaitQueue) Len() int { return wq.waiters.Len() }

// WakeOne wakes the oldest still-sleeping waiter; it reports whether a task
// was woken. Entries that were already woken by a signal are discarded.
func (wq *WaitQueue) WakeOne(k *Kernel) bool { return wq.WakeOneFrom(k, -1) }

// WakeOneFrom is WakeOne with a waker-CPU affinity hint.
func (wq *WaitQueue) WakeOneFrom(k *Kernel, wakerCPU int) bool {
	for {
		t, ok := wq.waiters.Pop()
		if !ok {
			return false
		}
		if t.state == StateSleeping {
			k.WakeFrom(t, wakerCPU)
			return true
		}
	}
}

// WakeAll wakes every still-sleeping waiter and reports how many were woken.
func (wq *WaitQueue) WakeAll(k *Kernel) int { return wq.WakeAllFrom(k, -1) }

// WakeAllFrom is WakeAll with a waker-CPU affinity hint.
func (wq *WaitQueue) WakeAllFrom(k *Kernel, wakerCPU int) int {
	n := 0
	for {
		t, ok := wq.waiters.Pop()
		if !ok {
			return n
		}
		if t.state == StateSleeping {
			k.WakeFrom(t, wakerCPU)
			n++
		}
	}
}
