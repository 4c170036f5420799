package ktau

import "math"

// EventSnap is one event's profile data, resolved with its name and group,
// as exported through /proc/ktau.
type EventSnap struct {
	ID    EventID
	Name  string
	Group Group
	Calls uint64
	Subrs uint64
	Incl  int64 // cycles
	Excl  int64 // cycles
	// Ctr holds exclusive performance-counter deltas, parallel to the
	// snapshot's CounterNames.
	Ctr [MaxCounters]int64
}

// AtomicSnap is one atomic event's exported statistics.
type AtomicSnap struct {
	ID    EventID
	Name  string
	Group Group
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
	Mean  float64
	Std   float64
}

// MappedSnap is one (user context, kernel event) mapped record.
type MappedSnap struct {
	Ctx     int32
	CtxName string
	Ev      EventID
	EvName  string
	Group   Group
	Calls   uint64
	Incl    int64
	Excl    int64
}

// Snapshot is a self-contained copy of one process's (or the kernel-wide
// aggregate's) KTAU performance data at a point in time.
type Snapshot struct {
	PID       int // -1 for the kernel-wide aggregate
	Name      string
	TSC       int64 // cycles at snapshot time
	Created   int64
	ExitedAt  int64
	Exited    bool
	Events    []EventSnap
	Atomics   []AtomicSnap
	Mapped    []MappedSnap
	TraceLost uint64
	// CounterNames identifies the entries of each event's Ctr vector (nil
	// when no counter source is attached).
	CounterNames []string
}

// KernelWidePID is the pseudo-PID of the kernel-wide aggregate view.
const KernelWidePID = -1

// SnapshotTask exports one process's profile.
func (m *Measurement) SnapshotTask(td *TaskData) Snapshot {
	var s Snapshot
	m.SnapshotTaskInto(td, &s)
	return s
}

// SnapshotTaskInto exports one process's profile into *s, reusing the
// capacity of its Events/Atomics/Mapped slices. It is the allocation-free
// form of SnapshotTask for callers that consume a snapshot transiently each
// round (e.g. the /proc/ktau packer); callers that retain snapshots across
// rounds must use SnapshotTask or copy the result.
func (m *Measurement) SnapshotTaskInto(td *TaskData, s *Snapshot) {
	*s = Snapshot{
		PID:          td.PID,
		Name:         td.Name,
		TSC:          m.env.Cycles(),
		Created:      td.CreatedTSC,
		ExitedAt:     td.ExitedTSC,
		Exited:       td.Exited,
		CounterNames: m.counterNames,
		Events:       s.Events[:0],
		Atomics:      s.Atomics[:0],
		Mapped:       s.Mapped[:0],
	}
	if td.trace != nil {
		s.TraceLost = td.trace.Lost()
	}
	for id := EventID(1); int(id) < len(td.prof); id++ {
		d := td.prof[id]
		if d.Calls == 0 && d.Incl == 0 && d.Excl == 0 {
			continue
		}
		s.Events = append(s.Events, EventSnap{
			ID: id, Name: m.Reg.Name(id), Group: m.Reg.GroupOf(id),
			Calls: d.Calls, Subrs: d.Subrs, Incl: d.Incl, Excl: d.Excl,
			Ctr: d.Ctr,
		})
	}
	for id := EventID(1); int(id) < len(td.atomics); id++ {
		a := td.atomics[id]
		if a.Count == 0 {
			continue
		}
		mean := a.Sum / float64(a.Count)
		varr := a.SumSqr/float64(a.Count) - mean*mean
		if varr < 0 {
			varr = 0
		}
		s.Atomics = append(s.Atomics, AtomicSnap{
			ID: id, Name: m.Reg.Name(id), Group: m.Reg.GroupOf(id),
			Count: a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max,
			Mean: mean, Std: math.Sqrt(varr),
		})
	}
	for _, k := range m.sortedMappedKeys(td) {
		d := td.mapped[k]
		s.Mapped = append(s.Mapped, MappedSnap{
			Ctx: k.Ctx, CtxName: m.CtxName(k.Ctx),
			Ev: k.Ev, EvName: m.Reg.Name(k.Ev), Group: m.Reg.GroupOf(k.Ev),
			Calls: d.Calls, Incl: d.Incl, Excl: d.Excl,
		})
	}
}

// KernelWide exports the aggregate of all processes (live plus retained
// exited): the paper's kernel-wide perspective.
func (m *Measurement) KernelWide() Snapshot {
	var s Snapshot
	m.KernelWideInto(&s)
	return s
}

// KernelWideInto computes the kernel-wide aggregate into *s, reusing its
// slice capacity (same contract as SnapshotTaskInto). Accumulation runs over
// dense EventID-indexed scratch tables sized by the registry — the registry
// already interns every name to a small integer, so no map is needed.
func (m *Measurement) KernelWideInto(s *Snapshot) {
	*s = Snapshot{PID: KernelWidePID, Name: "kernel-wide", TSC: m.env.Cycles(),
		CounterNames: m.counterNames,
		Events:       s.Events[:0],
		Atomics:      s.Atomics[:0],
		Mapped:       s.Mapped[:0]}
	n := m.Reg.Len()
	if cap(m.kwEv) < n {
		m.kwEv = make([]EventSnap, n)
		m.kwAt = make([]AtomicSnap, n)
	}
	evAcc := m.kwEv[:n]
	atAcc := m.kwAt[:n]
	for i := range evAcc {
		evAcc[i] = EventSnap{}
		atAcc[i] = AtomicSnap{}
	}
	m.restoreLiveOrder()
	for _, td := range m.liveOrder {
		m.kwAccum(td, evAcc, atAcc)
	}
	for _, td := range m.retired {
		m.kwAccum(td, evAcc, atAcc)
	}
	for id := EventID(1); int(id) < n; id++ {
		if e := &evAcc[id]; e.ID != 0 {
			e.Name = m.Reg.Name(id)
			e.Group = m.Reg.GroupOf(id)
			s.Events = append(s.Events, *e)
		}
		if a := &atAcc[id]; a.ID != 0 {
			a.Name = m.Reg.Name(id)
			a.Group = m.Reg.GroupOf(id)
			if a.Count > 0 {
				a.Mean = a.Sum / float64(a.Count)
			}
			s.Atomics = append(s.Atomics, *a)
		}
	}
}

// kwAccum folds one task's profile into the kernel-wide accumulators. A
// record's ID field doubles as its presence marker.
func (m *Measurement) kwAccum(td *TaskData, evAcc []EventSnap, atAcc []AtomicSnap) {
	for id := EventID(1); int(id) < len(td.prof) && int(id) < len(evAcc); id++ {
		d := &td.prof[id]
		if d.Calls == 0 && d.Incl == 0 && d.Excl == 0 {
			continue
		}
		e := &evAcc[id]
		e.ID = id
		e.Calls += d.Calls
		e.Subrs += d.Subrs
		e.Incl += d.Incl
		e.Excl += d.Excl
		for ci := range d.Ctr {
			e.Ctr[ci] += d.Ctr[ci]
		}
	}
	for id := EventID(1); int(id) < len(td.atomics) && int(id) < len(atAcc); id++ {
		a := &td.atomics[id]
		if a.Count == 0 {
			continue
		}
		e := &atAcc[id]
		if e.ID == 0 {
			e.ID = id
			e.Min = a.Min
			e.Max = a.Max
		}
		e.Count += a.Count
		e.Sum += a.Sum
		if a.Min < e.Min {
			e.Min = a.Min
		}
		if a.Max > e.Max {
			e.Max = a.Max
		}
	}
}

// SnapshotAll exports every known process in deterministic order.
func (m *Measurement) SnapshotAll() []Snapshot {
	tasks := m.AllTasks()
	out := make([]Snapshot, 0, len(tasks))
	for _, td := range tasks {
		out = append(out, m.SnapshotTask(td))
	}
	return out
}

// FindEvent returns the snapshot record for the named event, or nil.
func (s Snapshot) FindEvent(name string) *EventSnap {
	for i := range s.Events {
		if s.Events[i].Name == name {
			return &s.Events[i]
		}
	}
	return nil
}

// GroupTotals sums exclusive cycles per instrumentation group.
func (s Snapshot) GroupTotals() map[Group]int64 {
	out := make(map[Group]int64)
	for _, e := range s.Events {
		out[e.Group] += e.Excl
	}
	return out
}

// TotalExcl sums exclusive cycles over all events in the snapshot.
func (s Snapshot) TotalExcl() int64 {
	var t int64
	for _, e := range s.Events {
		t += e.Excl
	}
	return t
}
