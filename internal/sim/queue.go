package sim

// Queue is a FIFO that pops by head index. Popping clears the slot, and once
// the queue empties the next push starts again at the front of the same
// storage, so a queue that fills and drains in steady state stops
// allocating. A queue that never quite empties slides its live entries to
// the front when the dead prefix is at least half the storage, which keeps
// the storage within twice the peak length. The zero Queue is empty and
// ready to use; it is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the value at the head; ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v, true
}
