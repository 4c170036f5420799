package perfmon

import (
	"sort"

	"ktau/internal/ktau"
)

// StoreConfig bounds the collector's time-series memory.
type StoreConfig struct {
	// Retention is the ring capacity: how many stored samples each
	// (node, event) series keeps (default 64). Older samples are evicted.
	Retention int
	// Downsample aggregates this many consecutive collection rounds into one
	// stored sample (default 1 = store every round). With D > 1 the store's
	// horizon is Retention×D rounds at 1/D resolution.
	Downsample int
}

func (c *StoreConfig) defaults() {
	if c.Retention <= 0 {
		c.Retention = 64
	}
	if c.Downsample <= 0 {
		c.Downsample = 1
	}
}

// Sample is one stored time-series point of a (node, event) series: the
// event's activity delta over the sample's window.
type Sample struct {
	// Round is the last collection round folded into this sample.
	Round  int
	DCalls uint64
	DIncl  int64
	DExcl  int64
}

// RoundMark records one stored window's bounds on the node's clock.
type RoundMark struct {
	Round   int
	FromTSC int64
	ToTSC   int64
}

// EventTotal is a series' cumulative state since monitoring began.
type EventTotal struct {
	Name  string
	Group ktau.Group
	Calls uint64
	Incl  int64
	Excl  int64
}

// ProcSample is one stored window of a per-process series.
type ProcSample struct {
	Round  int
	DTotal int64
	DIRQ   int64
	DBH    int64
	DSched int64
	DTCP   int64
	DTicks uint64
}

// ring is a fixed-capacity circular buffer.
type ring[T any] struct {
	buf  []T
	head int // index of oldest element
	n    int
}

func newRing[T any](capacity int) *ring[T] { return &ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// items returns the retained elements oldest-first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.at(i))
	}
	return out
}

// at returns the i-th retained element, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) len() int { return r.n }

type eventSeries struct {
	group ktau.Group
	ring  *ring[Sample]
	cum   EventTotal
	// acc accumulates rounds until the downsample factor is reached.
	acc      Sample
	accDirty bool
}

type procSeries struct {
	pid  int
	name string
	ring *ring[ProcSample]
	cum  ProcSample
	acc  ProcSample
	// dirty reports pending accumulated-but-unflushed activity.
	dirty bool
}

// nodeState is everything the store retains about one monitored node.
type nodeState struct {
	name      string
	idx       int
	cpus      int
	rounds    int // frames ingested
	bytes     uint64
	lastTSC   int64
	firstTSC  int64
	marks     *ring[RoundMark]
	markAcc   RoundMark
	accRuns   int // rounds accumulated toward the next stored sample
	events    map[string]*eventSeries
	procs     map[int]*procSeries
	lastRound int // highest round ingested (-1 before the first frame)
	missed    int // rounds skipped in the round sequence (frames never arrived)
	gaps      int // Gap frames ingested (the agent could not read its data)
	drops     uint64
	down      bool
}

// Store is the collector's bounded time-series database: per node × kernel
// event × metric (calls, inclusive, exclusive cycles), with per-process
// window summaries riding along for the detectors.
type Store struct {
	cfg    StoreConfig
	nodes  map[string]*nodeState
	order  []string // ingestion-order node names, for deterministic iteration
	frames uint64
	drops  uint64 // frames received but discarded (undecodable, corrupt, desynced)
}

// NewStore creates an empty store.
func NewStore(cfg StoreConfig) *Store {
	cfg.defaults()
	return &Store{cfg: cfg, nodes: make(map[string]*nodeState)}
}

// Config returns the store's bounds.
func (st *Store) Config() StoreConfig { return st.cfg }

// Frames returns the total number of ingested frames.
func (st *Store) Frames() uint64 { return st.frames }

// Drops returns the total number of discarded frames.
func (st *Store) Drops() uint64 { return st.drops }

// Drop counts a frame that arrived but could not be ingested (undecodable
// payload, corrupted in flight, or framing desync). node may be empty when
// the frame was too damaged to attribute.
func (st *Store) Drop(node string) {
	st.drops++
	if node != "" {
		st.node(node).drops++
	}
}

// MarkDown records that a node has stopped reporting (its sink gave up on
// it). A later ingested frame from the node clears the mark.
func (st *Store) MarkDown(node string) { st.node(node).down = true }

// Down reports whether the node is currently marked down.
func (st *Store) Down(node string) bool {
	ns := st.nodes[node]
	return ns != nil && ns.down
}

// NodeNames returns monitored node names in first-seen order.
func (st *Store) NodeNames() []string {
	out := make([]string, len(st.order))
	copy(out, st.order)
	return out
}

func (st *Store) node(name string) *nodeState {
	if ns, ok := st.nodes[name]; ok {
		return ns
	}
	ns := &nodeState{
		name:      name,
		idx:       len(st.order),
		marks:     newRing[RoundMark](st.cfg.Retention),
		events:    make(map[string]*eventSeries),
		procs:     make(map[int]*procSeries),
		firstTSC:  -1,
		lastRound: -1,
	}
	st.nodes[name] = ns
	st.order = append(st.order, name)
	return ns
}

// Ingest folds one frame into the store. Payload size accounting is the
// caller's (the sink knows the wire length; tests may pass 0).
func (st *Store) Ingest(f Frame, wireBytes int) {
	st.frames++
	ns := st.node(f.Node)
	ns.idx = f.NodeIdx
	ns.cpus = f.CPUs
	ns.rounds++
	ns.bytes += uint64(wireBytes)
	ns.down = false // hearing from the node proves it back
	if ns.lastRound >= 0 && f.Round > ns.lastRound+1 {
		// Frames for the intervening rounds never arrived (lost in a
		// failover or dropped): record the hole.
		ns.missed += f.Round - ns.lastRound - 1
	}
	if f.Round > ns.lastRound {
		ns.lastRound = f.Round
	}
	if f.Gap {
		ns.gaps++
	}
	if ns.firstTSC < 0 {
		ns.firstTSC = f.FromTSC
	}
	ns.lastTSC = f.ToTSC

	if ns.accRuns == 0 {
		ns.markAcc = RoundMark{Round: f.Round, FromTSC: f.FromTSC, ToTSC: f.ToTSC}
	} else {
		ns.markAcc.Round = f.Round
		ns.markAcc.ToTSC = f.ToTSC
	}

	for _, e := range f.Kernel {
		s := ns.events[e.Name]
		if s == nil {
			s = &eventSeries{group: e.Group, ring: newRing[Sample](st.cfg.Retention)}
			s.cum.Name = e.Name
			s.cum.Group = e.Group
			ns.events[e.Name] = s
		}
		if e.Absolute {
			// The node's profile was reset: restart the cumulative view.
			s.cum.Calls = e.DCalls
			s.cum.Incl = e.DIncl
			s.cum.Excl = e.DExcl
		} else {
			s.cum.Calls += e.DCalls
			s.cum.Incl += e.DIncl
			s.cum.Excl += e.DExcl
		}
		s.acc.Round = f.Round
		s.acc.DCalls += e.DCalls
		s.acc.DIncl += e.DIncl
		s.acc.DExcl += e.DExcl
		s.accDirty = true
	}
	for _, p := range f.Procs {
		ps := ns.procs[p.PID]
		if ps == nil {
			ps = &procSeries{pid: p.PID, name: p.Name, ring: newRing[ProcSample](st.cfg.Retention)}
			ns.procs[p.PID] = ps
		}
		ps.name = p.Name
		ps.cum.DTotal += p.DTotal
		ps.cum.DIRQ += p.DIRQ
		ps.cum.DBH += p.DBH
		ps.cum.DSched += p.DSched
		ps.cum.DTCP += p.DTCP
		ps.cum.DTicks += p.DTicks
		ps.acc.Round = f.Round
		ps.acc.DTotal += p.DTotal
		ps.acc.DIRQ += p.DIRQ
		ps.acc.DBH += p.DBH
		ps.acc.DSched += p.DSched
		ps.acc.DTCP += p.DTCP
		ps.acc.DTicks += p.DTicks
		ps.dirty = true
	}

	ns.accRuns++
	if ns.accRuns >= st.cfg.Downsample || f.Last {
		ns.flush()
	}
}

// flush moves accumulated rounds into the rings (one stored sample).
func (ns *nodeState) flush() {
	if ns.accRuns == 0 {
		return
	}
	ns.marks.push(ns.markAcc)
	for _, s := range ns.events {
		if s.accDirty {
			s.ring.push(s.acc)
			s.acc = Sample{}
			s.accDirty = false
		}
	}
	for _, ps := range ns.procs {
		if ps.dirty {
			ps.ring.push(ps.acc)
			ps.acc = ProcSample{}
			ps.dirty = false
		}
	}
	ns.accRuns = 0
}

// ---- queries ----

// NodeInfo summarises one monitored node's collection state.
type NodeInfo struct {
	Name   string
	Idx    int
	CPUs   int
	Rounds int
	Bytes  uint64
	// FirstTSC/LastTSC bound the monitored span on the node's clock.
	FirstTSC int64
	LastTSC  int64
	// Missed counts rounds whose frames never arrived (holes in the round
	// sequence); Gaps counts rounds the agent reported as unreadable; Drops
	// counts frames received from the node but discarded.
	Missed int
	Gaps   int
	Drops  uint64
	// Down marks a node whose sink gave up waiting for it.
	Down bool
}

// Nodes returns per-node collection state in first-seen order.
func (st *Store) Nodes() []NodeInfo {
	out := make([]NodeInfo, 0, len(st.order))
	for _, name := range st.order {
		ns := st.nodes[name]
		out = append(out, NodeInfo{
			Name: ns.name, Idx: ns.idx, CPUs: ns.cpus, Rounds: ns.rounds,
			Bytes: ns.bytes, FirstTSC: ns.firstTSC, LastTSC: ns.lastTSC,
			Missed: ns.missed, Gaps: ns.gaps, Drops: ns.drops, Down: ns.down,
		})
	}
	return out
}

// Totals returns a node's cumulative per-event totals sorted by name, or nil
// for an unknown node.
func (st *Store) Totals(node string) []EventTotal {
	ns := st.nodes[node]
	if ns == nil {
		return nil
	}
	out := make([]EventTotal, 0, len(ns.events))
	for _, s := range ns.events {
		out = append(out, s.cum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Total returns one node's cumulative total for the named event.
func (st *Store) Total(node, event string) (EventTotal, bool) {
	ns := st.nodes[node]
	if ns == nil {
		return EventTotal{}, false
	}
	s := ns.events[event]
	if s == nil {
		return EventTotal{}, false
	}
	return s.cum, true
}

// windowFloor returns the lowest round number inside the last `window`
// stored samples of the node (0 selects everything retained).
func (ns *nodeState) windowFloor(window int) int {
	n := ns.marks.len()
	if window <= 0 || window >= n {
		if n == 0 {
			return 0
		}
		return ns.marks.at(0).Round
	}
	return ns.marks.at(n - window).Round
}

// Series returns the retained samples of one (node, event) series whose
// rounds fall inside the last `window` stored windows (0 = all retained).
func (st *Store) Series(node, event string, window int) []Sample {
	ns := st.nodes[node]
	if ns == nil {
		return nil
	}
	s := ns.events[event]
	if s == nil {
		return nil
	}
	floor := ns.windowFloor(window)
	var out []Sample
	for _, smp := range s.ring.items() {
		if smp.Round >= floor {
			out = append(out, smp)
		}
	}
	return out
}

// Marks returns a node's retained window bounds, oldest first.
func (st *Store) Marks(node string) []RoundMark {
	ns := st.nodes[node]
	if ns == nil {
		return nil
	}
	return ns.marks.items()
}

// HotEvent is one kernel routine's activity over a queried window.
type HotEvent struct {
	Name  string
	Group ktau.Group
	Calls uint64
	Incl  int64
	Excl  int64
	// Nodes is how many nodes contributed activity.
	Nodes int
}

// TopK returns the K hottest kernel routines cluster-wide by exclusive
// cycles over the last `window` stored samples (0 = all retained), ties
// broken by name for determinism.
func (st *Store) TopK(k, window int) []HotEvent {
	agg := map[string]*HotEvent{}
	for _, name := range st.order {
		ns := st.nodes[name]
		floor := ns.windowFloor(window)
		for evName, s := range ns.events {
			var calls uint64
			var incl, excl int64
			for _, smp := range s.ring.items() {
				if smp.Round >= floor {
					calls += smp.DCalls
					incl += smp.DIncl
					excl += smp.DExcl
				}
			}
			if calls == 0 && excl == 0 {
				continue
			}
			h := agg[evName]
			if h == nil {
				h = &HotEvent{Name: evName, Group: s.group}
				agg[evName] = h
			}
			h.Calls += calls
			h.Incl += incl
			h.Excl += excl
			h.Nodes++
		}
	}
	out := make([]HotEvent, 0, len(agg))
	for _, h := range agg {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Excl != out[j].Excl {
			return out[i].Excl > out[j].Excl
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// NodeWindow sums one node's per-event activity over the last `window`
// stored samples, sorted by exclusive cycles (hottest first).
func (st *Store) NodeWindow(node string, window int) []HotEvent {
	ns := st.nodes[node]
	if ns == nil {
		return nil
	}
	floor := ns.windowFloor(window)
	var out []HotEvent
	for evName, s := range ns.events {
		var h HotEvent
		h.Name = evName
		h.Group = s.group
		for _, smp := range s.ring.items() {
			if smp.Round >= floor {
				h.Calls += smp.DCalls
				h.Incl += smp.DIncl
				h.Excl += smp.DExcl
			}
		}
		if h.Calls == 0 && h.Excl == 0 {
			continue
		}
		h.Nodes = 1
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Excl != out[j].Excl {
			return out[i].Excl > out[j].Excl
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ProcWindowTotal is one process's summed activity over a queried window.
type ProcWindowTotal struct {
	PID  int
	Name string
	ProcSample
}

// ProcWindow sums a node's per-process activity over the last `window`
// stored samples, sorted by PID for determinism.
func (st *Store) ProcWindow(node string, window int) []ProcWindowTotal {
	ns := st.nodes[node]
	if ns == nil {
		return nil
	}
	floor := ns.windowFloor(window)
	var out []ProcWindowTotal
	for pid, ps := range ns.procs {
		t := ProcWindowTotal{PID: pid, Name: ps.name}
		for _, smp := range ps.ring.items() {
			if smp.Round >= floor {
				t.DTotal += smp.DTotal
				t.DIRQ += smp.DIRQ
				t.DBH += smp.DBH
				t.DSched += smp.DSched
				t.DTCP += smp.DTCP
				t.DTicks += smp.DTicks
			}
		}
		if t.DTotal == 0 && t.DSched == 0 && t.DTicks == 0 {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// RoundsOverlapping returns the stored rounds of a node whose [FromTSC,
// ToTSC] window overlaps any of the given [from, to] TSC windows, in
// ascending round order. It is the bridge from application-level excursion
// windows (e.g. a tail request's admit→done span) to the kernel samples
// that cover them.
func (st *Store) RoundsOverlapping(node string, wins [][2]int64) []int {
	ns := st.nodes[node]
	if ns == nil || len(wins) == 0 {
		return nil
	}
	var out []int
	for _, m := range ns.marks.items() {
		for _, w := range wins {
			if m.ToTSC >= w[0] && m.FromTSC <= w[1] {
				out = append(out, m.Round)
				break
			}
		}
	}
	return out
}

// roundSet answers membership over a sorted ascending round list.
func roundSet(rounds []int) func(int) bool {
	return func(r int) bool {
		i := sort.SearchInts(rounds, r)
		return i < len(rounds) && rounds[i] == r
	}
}

// NodeWindowRounds sums one node's per-event activity over an explicit set
// of stored rounds (ascending, as returned by RoundsOverlapping), sorted by
// exclusive cycles hottest-first like NodeWindow.
func (st *Store) NodeWindowRounds(node string, rounds []int) []HotEvent {
	ns := st.nodes[node]
	if ns == nil || len(rounds) == 0 {
		return nil
	}
	in := roundSet(rounds)
	var out []HotEvent
	for evName, s := range ns.events {
		var h HotEvent
		h.Name = evName
		h.Group = s.group
		for _, smp := range s.ring.items() {
			if in(smp.Round) {
				h.Calls += smp.DCalls
				h.Incl += smp.DIncl
				h.Excl += smp.DExcl
			}
		}
		if h.Calls == 0 && h.Excl == 0 {
			continue
		}
		h.Nodes = 1
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Excl != out[j].Excl {
			return out[i].Excl > out[j].Excl
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ProcWindowRounds sums a node's per-process activity over an explicit set
// of stored rounds (ascending), sorted by PID for determinism.
func (st *Store) ProcWindowRounds(node string, rounds []int) []ProcWindowTotal {
	ns := st.nodes[node]
	if ns == nil || len(rounds) == 0 {
		return nil
	}
	in := roundSet(rounds)
	var out []ProcWindowTotal
	for pid, ps := range ns.procs {
		t := ProcWindowTotal{PID: pid, Name: ps.name}
		for _, smp := range ps.ring.items() {
			if in(smp.Round) {
				t.DTotal += smp.DTotal
				t.DIRQ += smp.DIRQ
				t.DBH += smp.DBH
				t.DSched += smp.DSched
				t.DTCP += smp.DTCP
				t.DTicks += smp.DTicks
			}
		}
		if t.DTotal == 0 && t.DSched == 0 && t.DTicks == 0 {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// WallCyclesRounds sums the wall-clock spans of an explicit set of stored
// rounds (ascending) on a node's clock.
func (st *Store) WallCyclesRounds(node string, rounds []int) int64 {
	ns := st.nodes[node]
	if ns == nil || len(rounds) == 0 {
		return 0
	}
	in := roundSet(rounds)
	var total int64
	for _, m := range ns.marks.items() {
		if in(m.Round) {
			total += m.ToTSC - m.FromTSC
		}
	}
	return total
}

// WallCycles returns the span of the last `window` stored windows on a
// node's clock (0 = whole monitored span).
func (st *Store) WallCycles(node string, window int) int64 {
	ns := st.nodes[node]
	if ns == nil {
		return 0
	}
	marks := ns.marks.items()
	if len(marks) == 0 {
		return 0
	}
	first := marks[0]
	if window > 0 && window < len(marks) {
		first = marks[len(marks)-window]
	}
	return marks[len(marks)-1].ToTSC - first.FromTSC
}
