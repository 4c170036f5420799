package ktau

// EventData is the per-process performance record of one entry/exit
// instrumentation point: call counts, child-call counts, and inclusive /
// exclusive time in cycles (paper §4.1: the entry/exit event macro tracks the
// activation stack depth and uses it to calculate inclusive and exclusive
// performance data).
type EventData struct {
	Calls uint64
	Subrs uint64
	Incl  int64 // inclusive cycles
	Excl  int64 // exclusive cycles
	// Ctr holds exclusive performance-counter deltas (instructions, cache
	// misses, ...) when a CounterSource is attached.
	Ctr [MaxCounters]int64
}

// AtomicData is the per-process record of one atomic (stand-alone) event,
// such as the size of a network packet (paper §4.1).
type AtomicData struct {
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
	SumSqr float64
}

func (a *AtomicData) add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
	a.SumSqr += v * v
}

// frame is one activation-stack entry.
type frame struct {
	ev       EventID
	start    int64 // TSC at entry
	kids     int64 // cycles consumed by child activations
	ctx      int32 // user context captured at entry (event mapping)
	ctrStart [MaxCounters]int64
	ctrKids  [MaxCounters]int64
}

// MapKey addresses mapped performance data: the pair of a user-level context
// (the routine the process was executing at event entry) and a kernel event.
// This realises the process-centric event mapping that lets KTAU report, for
// example, which kernel call groups were active inside MPI_Recv (Fig. 4) or
// how many TCP receive calls interrupted a compute phase (Fig. 9).
type MapKey struct {
	Ctx int32
	Ev  EventID
}

// TaskData is the KTAU measurement structure added to each process control
// block on process creation (paper §4.2). It holds the profile table, the
// activation stack, the optional circular trace buffer and the optional
// context-mapped data.
type TaskData struct {
	PID  int
	Name string

	// CreatedTSC and ExitedTSC bound the process lifetime in cycles.
	CreatedTSC int64
	ExitedTSC  int64
	Exited     bool

	prof    []EventData
	atomics []AtomicData
	onStack []int32
	stack   []frame
	trace   *Ring
	mapped  map[MapKey]*EventData
	userCtx int32

	unmatchedExits uint64

	// createSeq and liveIdx are the measurement system's live-list
	// bookkeeping: creation sequence for order restoration and the task's
	// current index in liveOrder (-1 once exited).
	createSeq uint64
	liveIdx   int
}

// ensure grows the flat per-event tables to cover id.
func (td *TaskData) ensure(id EventID) {
	need := int(id) + 1
	if len(td.prof) < need {
		grown := make([]EventData, need)
		copy(grown, td.prof)
		td.prof = grown
		gs := make([]int32, need)
		copy(gs, td.onStack)
		td.onStack = gs
	}
}

func (td *TaskData) ensureAtomic(id EventID) {
	need := int(id) + 1
	if len(td.atomics) < need {
		grown := make([]AtomicData, need)
		copy(grown, td.atomics)
		td.atomics = grown
	}
}

// Event returns the profile record for id, or nil if never touched.
func (td *TaskData) Event(id EventID) *EventData {
	if int(id) >= len(td.prof) || id <= 0 {
		return nil
	}
	d := &td.prof[id]
	if d.Calls == 0 && d.Incl == 0 && d.Excl == 0 {
		return nil
	}
	return d
}

// Trace exposes the task's trace ring (nil when tracing is disabled).
func (td *TaskData) Trace() *Ring { return td.trace }

// UserCtx returns the current user-level mapping context.
func (td *TaskData) UserCtx() int32 { return td.userCtx }

// StackDepth reports the current activation-stack depth (for tests and
// invariant checks).
func (td *TaskData) StackDepth() int { return len(td.stack) }

// UnmatchedExits reports how many Exit calls arrived without a matching
// Entry (possible when runtime control flips mid-activation; they are
// tolerated and counted rather than corrupting the stack).
func (td *TaskData) UnmatchedExits() uint64 { return td.unmatchedExits }

// mappedData returns (creating if needed) the mapped record for key.
func (td *TaskData) mappedData(key MapKey) *EventData {
	if td.mapped == nil {
		td.mapped = make(map[MapKey]*EventData)
	}
	d := td.mapped[key]
	if d == nil {
		d = &EventData{}
		td.mapped[key] = d
	}
	return d
}
