package sim

import "testing"

// TestQueueFIFO: values pop in push order across emptying, refilling and
// sliding the live entries to the front, and a popped slot is cleared.
func TestQueueFIFO(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 100)
	next, want := 0, 0
	push := func() { q.Push(&vals[next]); next++ }
	pop := func() {
		v, ok := q.Pop()
		if !ok || v != &vals[want] {
			t.Fatalf("pop %d: got %v, %v", want, v, ok)
		}
		want++
	}
	for next < len(vals) {
		// Push three and pop two per round, so the queue never empties and
		// its dead prefix keeps growing until Push slides it away.
		for i := 0; i < 3 && next < len(vals); i++ {
			push()
		}
		pop()
		pop()
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
		for i := range q.buf[:q.head] {
			if q.buf[i] != nil {
				t.Fatalf("popped slot %d still holds a value", i)
			}
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue popped a value")
	}
	if want != len(vals) {
		t.Fatalf("popped %d values, want %d", want, len(vals))
	}
}

// TestQueueReusesStorage: a queue that fills and drains allocates nothing
// once its storage has reached the working size, and one that never drains
// keeps its storage within a bound of its length.
func TestQueueReusesStorage(t *testing.T) {
	var q Queue[int]
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("fill-and-drain cycle allocates %v/op, want 0", allocs)
	}
	var r Queue[int]
	for i := 0; i < 10000; i++ {
		r.Push(i)
		if r.Len() > 4 {
			r.Pop()
		}
	}
	if c := cap(r.buf); c > 16 {
		t.Errorf("a queue holding at most 5 values grew to capacity %d", c)
	}
}
