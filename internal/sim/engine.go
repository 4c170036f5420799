package sim

import (
	"fmt"
	"time"
)

// Event is a scheduled callback in virtual time. Event objects are pooled:
// once an event has fired (or a cancelled event has been collected) the
// engine reuses its storage for a later schedule. Callers therefore never
// hold *Event directly — scheduling returns a generation-stamped Handle
// whose operations are safe (no-ops) against a recycled slot.
type Event struct {
	at Time

	// gen stamps the occupancy of this slot. Scheduling rounds it up to the
	// next multiple of 4; firing adds 1 and cancelled-collection adds 2, so a
	// Handle can still report the outcome of the occurrence it named until
	// the slot is reused.
	gen uint64

	fn  func()    // closure form
	afn func(any) // argument form (closure-free call sites)
	arg any

	canceled bool
	fired    bool
}

const (
	genFired    = 1
	genCanceled = 2
	genStride   = 4
)

// Handle names one scheduled occurrence of a pooled event. The zero Handle
// is valid and names nothing: Cancel on it is a no-op and all queries
// report false.
type Handle struct {
	ev  *Event
	gen uint64
}

// At reports the virtual time the occurrence is scheduled to fire (0 once
// the slot has been recycled).
func (h Handle) At() Time {
	if h.ev != nil && h.ev.gen == h.gen {
		return h.ev.at
	}
	return 0
}

// Fired reports whether the occurrence has run. It stays accurate until the
// engine reuses the slot for a later schedule, which cannot happen while
// the occurrence is still pending.
func (h Handle) Fired() bool {
	if h.ev == nil {
		return false
	}
	if h.ev.gen == h.gen {
		return h.ev.fired
	}
	return h.ev.gen == h.gen+genFired
}

// Canceled reports whether Cancel hit the occurrence before it fired (with
// the same recycling caveat as Fired).
func (h Handle) Canceled() bool {
	if h.ev == nil {
		return false
	}
	if h.ev.gen == h.gen {
		return h.ev.canceled
	}
	return h.ev.gen == h.gen+genCanceled
}

// Pending reports whether the occurrence is still scheduled: not fired, not
// cancelled, not recycled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.fired && !h.ev.canceled
}

// entry is one calendar slot. It holds the (at, seq) sort key inline next
// to the event it orders, so sifting compares keys without dereferencing
// events; seq is the tie-break that makes equal-time events fire in schedule
// order.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a entry) less(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// calendar is a 4-ary min-heap of entries under (at, seq). The wider fan-out
// halves the depth of a binary heap, and a node's four children are adjacent
// in memory.
type calendar []entry

func (c *calendar) push(x entry) {
	h := append(*c, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*c = h
}

// pop removes and returns the minimum entry. The calendar must not be empty.
func (c *calendar) pop() entry {
	h := *c
	top := h[0]
	n := len(h) - 1
	if n > 0 {
		h[:n].siftDown(0, h[n])
	}
	*c = h[:n]
	return top
}

// siftDown places x at index i or below, moving smaller children up.
func (h calendar) siftDown(i int, x entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// heapify restores the heap property over arbitrary contents.
func (h calendar) heapify() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; simulated processes synchronise with the engine through
// strict channel handoffs so that only one goroutine runs at a time.
type Engine struct {
	now     Time
	pq      calendar
	seq     uint64
	stopped bool

	// free is the pool of recycled Event slots; dead counts cancelled events
	// still parked in pq awaiting lazy collection.
	free []*Event
	dead int

	// EventCount is the total number of events executed so far.
	EventCount uint64
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an Event slot from the pool (or makes one) and stamps a fresh
// generation, invalidating handles to its previous occupancy.
func (e *Engine) alloc() *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.gen = (ev.gen/genStride + 1) * genStride
	ev.canceled = false
	ev.fired = false
	return ev
}

// release returns a popped Event slot to the pool, recording the outcome of
// the occurrence in the generation stamp.
func (e *Engine) release(ev *Event, outcome uint64) {
	ev.gen += outcome
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

func (e *Engine) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

func (e *Engine) push(ev *Event, t Time) Handle {
	e.seq++
	ev.at = t
	e.pq.push(entry{at: t, seq: e.seq, ev: ev})
	return Handle{ev: ev, gen: ev.gen}
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a simulation bug rather than a recoverable condition.
func (e *Engine) At(t Time, fn func()) Handle {
	e.checkAt(t)
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.fn = fn
	return e.push(ev, t)
}

// AtCall schedules fn(arg) at virtual time t. It is the closure-free form
// of At: hot call sites pass a static function plus a pointer-typed arg and
// schedule without allocating.
func (e *Engine) AtCall(t Time, fn func(any), arg any) Handle {
	e.checkAt(t)
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.afn = fn
	ev.arg = arg
	return e.push(ev, t)
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// AfterCall schedules fn(arg) to run d after the current time (the
// closure-free form of After).
func (e *Engine) AfterCall(d time.Duration, fn func(any), arg any) Handle {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now.Add(d), fn, arg)
}

// Cancel prevents the occurrence named by h from firing. Cancelling an
// already-fired, already-cancelled, recycled or zero handle is a no-op.
// Deletion is lazy: the event is only flagged here and its slot collected
// when it surfaces at the top of the calendar (or at the next compaction),
// so Cancel never reshuffles the heap.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.fired || ev.canceled {
		return
	}
	ev.canceled = true
	e.dead++
	// Compact when cancelled events dominate the calendar, so a cancel-heavy
	// workload (e.g. timeout timers that almost never expire) cannot grow the
	// heap without bound.
	if e.dead > 64 && e.dead*2 > len(e.pq) {
		e.compact()
	}
}

// compact rebuilds the heap without its cancelled events. Pop order of live
// events is unaffected: (at, seq) is a strict total order, so any heap over
// the same live set pops identically.
func (e *Engine) compact() {
	live := e.pq[:0]
	for _, x := range e.pq {
		if x.ev.canceled {
			e.release(x.ev, genCanceled)
			continue
		}
		live = append(live, x)
	}
	e.pq = live
	e.dead = 0
	e.pq.heapify()
}

// skim collects cancelled events sitting at the top of the calendar so that
// pq[0], when it exists, is always a live event.
func (e *Engine) skim() {
	for len(e.pq) > 0 && e.pq[0].ev.canceled {
		e.dead--
		e.release(e.pq.pop().ev, genCanceled)
	}
}

// Step executes the next pending event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := e.pq.pop().ev
		if ev.canceled {
			e.dead--
			e.release(ev, genCanceled)
			continue
		}
		e.now = ev.at
		ev.fired = true
		e.EventCount++
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		// Release before running so the callback's own scheduling can reuse
		// the slot; the bumped generation keeps stale handles inert.
		e.release(ev, genFired)
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		return true
	}
	return false
}

// Run executes events until the calendar is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is not already past it). Events scheduled beyond t remain queued.
// If Stop interrupts the window the clock is left where the last event ran:
// fast-forwarding past still-pending events would make time run backwards
// when they later fire.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		e.skim()
		if len(e.pq) == 0 || e.pq[0].at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunWindow executes events with timestamps strictly before end, then
// advances the clock to end. It is the engine-local half of a conservative
// lookahead window: the caller guarantees no event earlier than end can
// still arrive from outside. As in RunUntil, Stop leaves the clock at the
// last executed event.
func (e *Engine) RunWindow(end Time) {
	e.stopped = false
	for !e.stopped {
		e.skim()
		if len(e.pq) == 0 || e.pq[0].at >= end {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < end {
		e.now = end
	}
}

// NextEventAt reports the timestamp of the earliest pending event and whether
// one exists.
func (e *Engine) NextEventAt() (Time, bool) {
	e.skim()
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of live (uncancelled) events in the calendar.
func (e *Engine) Pending() int {
	return len(e.pq) - e.dead
}
