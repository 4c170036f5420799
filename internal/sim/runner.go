package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// xev is a cross-engine event parked in a post buffer until it is
// delivered. The (at, src, seq) triple is a strict total order: seq is
// per-source and each source engine executes sequentially, so the key — and
// therefore the merged delivery order — is independent of how worker
// goroutines interleave.
type xev struct {
	at  Time
	dst int
	src int
	seq uint64
	fn  func(any)
	arg any
}

// compareXev is the runner's merge comparator and an explicit strict total
// order: events sort by virtual delivery time, ties between sources break
// on source engine index, and ties within one source break on the
// per-source sequence number, which is assigned in the source's (strictly
// sequential) execution order. No two xevs share the same (src, seq), so
// the relation is antisymmetric and total — sorting any permutation of the
// same events produces the same sequence, which is what makes the merged
// delivery order a pure function of the events themselves rather than of
// goroutine interleaving.
func compareXev(a, b xev) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return a.src - b.src
	}
	return cmp.Compare(a.seq, b.seq)
}

// runnerGroup is one synchronisation group of the runner: a set of engines
// whose mutual lookahead is small enough that they must advance in tight
// windows. Mid-epoch, a group is owned by exactly one worker goroutine, so
// all its fields — including the pend buffer that carries intra-group posts
// to the next group-local window — are accessed without locks.
type runnerGroup struct {
	idx     int
	members []int         // engine indices, ascending
	window  time.Duration // min intra-group pair lookahead; 0 = single engine, no internal constraint

	now    Time
	winEnd Time // end of the group-local window currently running (valid mid-epoch)

	pend []xev // intra-group posts awaiting the next group-local window
	xbuf []xev // this group's share of the inbox, filled at rendezvous

	panicIdx int
	panicVal any
}

// Runner executes a set of engines (one per simulated node) under
// conservative time-windowed synchronisation derived from a per-pair
// lookahead matrix.
//
// The engines are partitioned into synchronisation groups (strongly-coupled
// pairs share a group; see LatencyMatrix.Partition), and the runner
// advances in epochs: all groups rendezvous every min-cross-group-lookahead
// of virtual time, and between rendezvous each group advances through its
// own window clock sized by its internal minimum pair lookahead,
// independently of the other groups. Cross-group events are parked in an
// inbox and merged in (time, source, per-source sequence) order at the
// rendezvous; the pair lookahead guarantees they can never land inside the
// epoch that posted them.
//
// A matrix that couples every engine into one group (any uniform matrix,
// for example) is run as one single-engine group per engine. Each epoch is
// then one window of the matrix minimum, run by every engine, with a
// barrier after it.
//
// The schedule is byte-identical regardless of worker count: a Runner with
// workers=1 takes the exact same scheduling decisions as a parallel run.
type Runner struct {
	engines   []*Engine
	matrix    *LatencyMatrix
	lookahead time.Duration // matrix minimum: a lower bound on every pair's lookahead
	workers   int

	now Time

	mu    sync.Mutex
	inbox []xev // cross-group and between-epoch posts awaiting the next rendezvous
	spare []xev // drained inbox buffer, swapped back in at the next rendezvous
	seqs  []uint64

	groups   []*runnerGroup
	groupOf  []int
	xmin     time.Duration // min cross-group pair lookahead: the epoch span
	inEpoch  bool
	epochEnd Time

	hooks []func()
}

// NewRunner returns a runner over the given engines with a uniform per-pair
// lookahead: every engine advances in windows of that length. lookahead
// must be positive; workers is clamped to [1, len(engines)].
func NewRunner(engines []*Engine, lookahead time.Duration, workers int) *Runner {
	if len(engines) == 0 {
		panic("sim: runner needs at least one engine")
	}
	if lookahead <= 0 {
		panic("sim: runner lookahead must be positive")
	}
	return NewPartitionedRunner(engines, NewLatencyMatrix(len(engines), lookahead), workers)
}

// NewPartitionedRunner returns a runner whose synchronisation structure is
// derived from the per-pair lookahead matrix: engines whose pair lookahead
// is within CoupleFactor of the matrix minimum share a synchronisation
// group; groups advance independently between epoch rendezvous. A matrix
// that partitions into one group is run as one group per engine, with the
// matrix minimum as the epoch span. workers is clamped to [1, number of
// groups].
func NewPartitionedRunner(engines []*Engine, m *LatencyMatrix, workers int) *Runner {
	if len(engines) == 0 {
		panic("sim: runner needs at least one engine")
	}
	if m == nil {
		panic("sim: runner needs a latency matrix")
	}
	if m.Size() != len(engines) {
		panic(fmt.Sprintf("sim: latency matrix size %d != engine count %d", m.Size(), len(engines)))
	}
	lookahead := m.Min()
	if lookahead <= 0 {
		panic("sim: latency matrix minimum pair lookahead must be positive")
	}
	parts := m.Partition(CoupleFactor * lookahead)
	if len(parts) == 1 {
		// One group would run windows of the matrix minimum with nothing to
		// meet. Single-engine groups run the same windows, as epochs.
		parts = make([][]int, len(engines))
		for i := range parts {
			parts[i] = []int{i}
		}
	}
	r := &Runner{
		engines:   engines,
		matrix:    m,
		lookahead: lookahead,
		workers:   max(1, min(workers, len(parts))),
		seqs:      make([]uint64, len(engines)),
		groupOf:   make([]int, len(engines)),
		groups:    make([]*runnerGroup, len(parts)),
	}
	for gi, members := range parts {
		r.groups[gi] = &runnerGroup{idx: gi, members: members, window: m.minWithin(members), panicIdx: -1}
		for _, ei := range members {
			r.groupOf[ei] = gi
		}
	}
	// A single engine has no cross-group pair; its epoch is the matrix
	// default.
	if r.xmin = minAcross(m, r.groupOf); r.xmin == 0 {
		r.xmin = lookahead
	}
	return r
}

// Now returns the runner's virtual time: the end of the last completed
// epoch. Individual engine clocks never lag it between epochs.
func (r *Runner) Now() Time { return r.now }

// Lookahead returns the minimum pair lookahead, a lower bound on every
// pair's lookahead. A post at Now()+Lookahead() is legal from any barrier
// hook.
func (r *Runner) Lookahead() time.Duration { return r.lookahead }

// PairLookahead returns the lookahead of the ordered engine pair src→dst:
// the minimum virtual delay of any cross-engine post from src to dst. For
// src == dst it returns the global minimum, preserving the historical
// timing of self-directed cross-calls.
func (r *Runner) PairLookahead(src, dst int) time.Duration {
	if src < 0 || src >= len(r.engines) || dst < 0 || dst >= len(r.engines) {
		panic(fmt.Sprintf("sim: pair lookahead with engine out of range (src=%d dst=%d n=%d)", src, dst, len(r.engines)))
	}
	if src == dst {
		return r.lookahead
	}
	return r.matrix.Pair(src, dst)
}

// Workers returns the number of worker goroutines used per epoch.
func (r *Runner) Workers() int { return r.workers }

// Engines returns the engines the runner drives (index = engine id used by
// Post). The slice must not be mutated.
func (r *Runner) Engines() []*Engine { return r.engines }

// Groups returns the synchronisation groups as slices of engine indices, in
// ascending order of their lowest member. A uniform topology yields one
// single-engine group per engine.
func (r *Runner) Groups() [][]int {
	out := make([][]int, len(r.groups))
	for i, g := range r.groups {
		out[i] = slices.Clone(g.members)
	}
	return out
}

// EpochSpan returns the virtual-time distance between global rendezvous:
// the minimum cross-group pair lookahead.
func (r *Runner) EpochSpan() time.Duration { return r.xmin }

// OnBarrier registers fn to run on the runner's goroutine at every epoch
// rendezvous, after every group's clock has reached the epoch end and
// cross-group events have been merged. Barrier hooks are the sanctioned way
// to publish one node's state for other nodes to read in the next epoch.
func (r *Runner) OnBarrier(fn func()) {
	if fn == nil {
		panic("sim: nil barrier hook")
	}
	r.hooks = append(r.hooks, fn)
}

// Post schedules fn at virtual time at on engine dst, on behalf of engine
// src. It is PostCall with fn riding in the argument slot: one delivery
// path, with the same checks and the same order.
func (r *Runner) Post(src, dst int, at Time, fn func()) {
	if fn == nil {
		panic("sim: nil cross-engine event callback")
	}
	r.PostCall(src, dst, at, callFunc, fn)
}

// callFunc runs a func() that rides in an event's argument slot.
func callFunc(arg any) { arg.(func())() }

// PostCall schedules fn(arg) at virtual time at on engine dst, on behalf of
// engine src: the closure-free form of Post, as Engine.AtCall is of
// Engine.At. A static fn and a pointer-typed arg post without allocating.
// It is the only safe way to schedule across engines while an epoch is
// running, and it panics if at arrives earlier than the pair lookahead
// src→dst permits — such a post is a lookahead violation and would make
// results depend on worker interleaving.
//
// Mid-epoch, PostCall runs on the goroutine that owns src's group
// (cross-engine events always originate from the executing engine). A
// self-directed post goes straight onto src's own calendar, which enforces
// at >= its clock. An intra-group post waits in the group's pend buffer for
// the next group-local window, lock-free. A cross-group post waits in the
// inbox for the next rendezvous. Between epochs, posts may come from any
// goroutine (hooks, boot wiring, tests) and all wait in the inbox, bounded
// only by the runner clock. Every waiting post is delivered in compareXev
// order.
func (r *Runner) PostCall(src, dst int, at Time, fn func(any), arg any) {
	if src < 0 || src >= len(r.engines) || dst < 0 || dst >= len(r.engines) {
		panic(fmt.Sprintf("sim: post with engine out of range (src=%d dst=%d n=%d)", src, dst, len(r.engines)))
	}
	if fn == nil {
		panic("sim: nil cross-engine event callback")
	}
	if r.inEpoch {
		if src == dst {
			r.engines[src].AtCall(at, fn, arg)
			return
		}
		g := r.groups[r.groupOf[src]]
		if r.groupOf[dst] == g.idx {
			if at < g.winEnd {
				panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v violates pair lookahead %v (group %d window ends at %v)",
					src, dst, at, r.matrix.Pair(src, dst), g.idx, g.winEnd))
			}
			r.seqs[src]++
			g.pend = append(g.pend, xev{at: at, dst: dst, src: src, seq: r.seqs[src], fn: fn, arg: arg})
			return
		}
		if at < r.epochEnd {
			panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v violates pair lookahead %v (epoch ends at %v)",
				src, dst, at, r.matrix.Pair(src, dst), r.epochEnd))
		}
	} else if at < r.now {
		panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v before now %v", src, dst, at, r.now))
	}
	r.mu.Lock()
	r.seqs[src]++
	r.inbox = append(r.inbox, xev{at: at, dst: dst, src: src, seq: r.seqs[src], fn: fn, arg: arg})
	r.mu.Unlock()
}

// deliver sorts buf in compareXev order, schedules every event on its
// destination engine and returns buf emptied, callbacks and arguments
// released, for reuse. Only the goroutine that owns the destination engines
// calls it.
func (r *Runner) deliver(buf []xev) []xev {
	if len(buf) == 0 {
		return buf
	}
	slices.SortFunc(buf, compareXev)
	for i := range buf {
		x := &buf[i]
		r.engines[x.dst].AtCall(x.at, x.fn, x.arg)
		x.fn, x.arg = nil, nil
	}
	return buf[:0]
}

// deliverPending empties every post buffer at a rendezvous. The inbox is
// bucketed by destination group, then each group receives its leftover
// intra-group posts and its bucket, each sorted once. Per-group sorting
// keeps the merge cost proportional to each group's own traffic, and every
// engine's insertion sequence is a pure function of the event set. The
// drained inbox is recycled, so a steady cross-traffic rate stops
// allocating.
func (r *Runner) deliverPending() {
	r.mu.Lock()
	in := r.inbox
	r.inbox = r.spare[:0]
	r.mu.Unlock()
	for i := range in {
		g := r.groups[r.groupOf[in[i].dst]]
		g.xbuf = append(g.xbuf, in[i])
		in[i].fn, in[i].arg = nil, nil
	}
	r.spare = in[:0]
	for _, g := range r.groups {
		g.pend = r.deliver(g.pend)
		g.xbuf = r.deliver(g.xbuf)
	}
}

// Step delivers pending cross-engine events, runs one epoch ending no
// later than limit, then runs the barrier hooks. Within the epoch every
// group advances independently, each through its own sequence of
// group-local windows, until all clocks reach the epoch end. The epoch span
// is the minimum cross-group pair lookahead, so no cross-group event posted
// inside the epoch can land before the next rendezvous; within a group the
// usual window invariant holds against the group's own (shorter) minimum
// pair lookahead. Worker goroutines pull whole groups, never individual
// engines: everything a group touches mid-epoch is owned by one goroutine,
// which is what keeps intra-group posts lock-free.
//
// The final epoch — the one whose end is clamped to limit — is closed:
// events scheduled exactly at limit fire. Empty spans are skipped by
// starting at the earliest pending event. Step returns false, without
// touching any clock, when no engine has a pending event and all post
// buffers are empty.
func (r *Runner) Step(limit Time) bool {
	r.deliverPending()
	var earliest Time
	pending := false
	for _, e := range r.engines {
		if t, ok := e.NextEventAt(); ok && (!pending || t < earliest) {
			earliest, pending = t, true
		}
	}
	if !pending {
		return false
	}
	start := r.now
	if earliest > start {
		start = earliest
	}
	if start > limit {
		start = limit
	}
	end := start.Add(r.xmin)
	closed := false
	if end >= limit {
		end = limit
		closed = true
	}

	r.inEpoch = true
	r.epochEnd = end
	if r.workers == 1 {
		for _, g := range r.groups {
			r.runGroupEpoch(g, end, closed)
		}
	} else {
		// Hoisted into a separate method so the goroutine closure's captures
		// do not force end/closed onto the heap on the serial path above.
		r.runEpochParallel(end, closed)
	}
	r.inEpoch = false

	// Panic propagation: the lowest-indexed engine's panic surfaces no
	// matter how groups were scheduled across workers. The scan also clears
	// the slots for the next epoch.
	panicIdx, panicVal := -1, any(nil)
	for _, g := range r.groups {
		if g.panicIdx >= 0 {
			if panicIdx < 0 || g.panicIdx < panicIdx {
				panicIdx, panicVal = g.panicIdx, g.panicVal
			}
			g.panicIdx, g.panicVal = -1, nil
		}
	}
	if panicIdx >= 0 {
		panic(panicVal)
	}

	r.now = end
	for _, h := range r.hooks {
		h()
	}
	return true
}

// runEpochParallel runs every group's epoch on a worker pool. Workers pull
// whole groups from a shared counter; group order of completion is
// irrelevant because groups share no mid-epoch state.
func (r *Runner) runEpochParallel(end Time, closed bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.groups) {
					return
				}
				r.runGroupEpoch(r.groups[i], end, closed)
			}
		}()
	}
	wg.Wait()
}

// runGroupEpoch advances one group from its current clock to the epoch end.
// A single engine has no intra-group pair to wait for and runs straight to
// the epoch end. A larger group goes through consecutive group-local
// windows. Each window is sized by the group's internal minimum pair
// lookahead, starts no earlier than the group's earliest pending event
// (empty spans are skipped), and is clamped to the epoch end; the final
// window of a closed epoch is itself closed. A panicking engine is recorded
// (lowest member index wins), the remaining members still finish the
// current window, and the group stops advancing — the panic is re-raised
// at the rendezvous.
func (r *Runner) runGroupEpoch(g *runnerGroup, epochEnd Time, closed bool) {
	if g.window == 0 {
		r.runEngineSpan(g, g.members[0], epochEnd, closed)
		g.now = epochEnd
		return
	}
	for {
		g.pend = r.deliver(g.pend)
		var earliest Time
		pending := false
		for _, ei := range g.members {
			if t, ok := r.engines[ei].NextEventAt(); ok && (!pending || t < earliest) {
				earliest, pending = t, true
			}
		}
		start := g.now
		if pending && earliest > start {
			start = earliest
		}
		if start > epochEnd {
			start = epochEnd
		}
		end := epochEnd
		final := true
		if pending {
			if w := start.Add(g.window); w < epochEnd {
				end, final = w, false
			}
		}
		g.winEnd = end
		runClosed := closed && final
		for _, ei := range g.members {
			r.runEngineSpan(g, ei, end, runClosed)
		}
		g.now = end
		if g.panicIdx >= 0 || final {
			return
		}
	}
}

// runEngineSpan runs one engine through [.., end), catching a simulated
// application panic so the rest of the group still finishes the window.
func (r *Runner) runEngineSpan(g *runnerGroup, ei int, end Time, closed bool) {
	defer func() {
		if v := recover(); v != nil {
			if g.panicIdx < 0 || ei < g.panicIdx {
				g.panicIdx, g.panicVal = ei, v
			}
		}
	}()
	if closed {
		r.engines[ei].RunUntil(end)
	} else {
		r.engines[ei].RunWindow(end)
	}
}

// RunUntil runs epochs until virtual time t. If the calendar drains first,
// every clock is advanced to t so relative scheduling keeps working.
func (r *Runner) RunUntil(t Time) {
	for r.now < t {
		if !r.Step(t) {
			for _, e := range r.engines {
				e.RunUntil(t)
			}
			for _, g := range r.groups {
				g.now = t
			}
			r.now = t
			for _, h := range r.hooks {
				h()
			}
			return
		}
	}
}
