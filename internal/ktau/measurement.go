package ktau

import (
	"cmp"
	"fmt"
	"slices"
)

// Env is what the measurement system needs from its host: a per-CPU cycle
// clock (the virtual Time Stamp Counter) and a sink that injects measurement
// overhead into the host's virtual time. The kernel simulator implements Env;
// unit tests use a fake.
type Env interface {
	// Cycles returns the current value of the executing CPU's cycle counter.
	Cycles() int64
	// AddOverhead charges the given number of cycles of measurement cost to
	// the currently executing context, perturbing virtual time exactly as
	// compiled-in instrumentation perturbs a real kernel.
	AddOverhead(cycles int64)
}

// Options configures a measurement system instance.
type Options struct {
	// Compiled is the set of instrumentation groups compiled into the kernel
	// (make menuconfig). Points outside this mask cost nothing at all — the
	// code simply is not there. A zero value means no KTAU patch ("Base").
	Compiled Group
	// Boot is the boot-time enable mask; groups compiled in but booted off
	// cost only the runtime flag probe.
	Boot Group
	// Runtime is the initial runtime enable mask (defaults to Boot if zero
	// and Boot is nonzero).
	Runtime Group
	// Overhead models the direct cost of measurement operations; nil means
	// ZeroOverheadModel (no perturbation — useful for pure unit tests).
	Overhead *OverheadModel
	// TraceCapacity is the per-process circular trace buffer length in
	// records; 0 disables tracing.
	TraceCapacity int
	// Mapping enables per-user-context mapped accounting (event mapping to
	// process context, §4.1).
	Mapping bool
	// RetainExited keeps the measurement structures of exited processes so
	// post-mortem analysis can read them. A real kernel frees them — KTAUD
	// exists precisely to harvest data before death — but experiments want
	// the full record.
	RetainExited bool
}

// Measurement is one node's KTAU measurement system (paper §4.2): it owns the
// event registry, the control state, the per-process data life-cycle and the
// instrumentation fast paths.
type Measurement struct {
	Reg *Registry

	env      Env
	oh       *OverheadModel
	compiled Group
	boot     Group
	runtime  Group

	traceCap     int
	mapping      bool
	retainExited bool

	live      map[int]*TaskData
	liveOrder []*TaskData
	liveDirty bool // liveOrder left unsorted by a swap-delete in ExitTask
	createSeq uint64
	retired   []*TaskData

	counterSrc   CounterSource
	counterNames []string

	// kwEv/kwAt are KernelWideInto's dense accumulator scratch, indexed by
	// EventID and reused across rounds.
	kwEv []EventSnap
	kwAt []AtomicSnap
	// mapKeys is sortedMappedKeys' scratch, refilled for every snapshot.
	mapKeys []MapKey

	ctxNames []string // user-context id -> name; index 0 unused

	// Stats counts fast-path operations for the ablation benches.
	Stats struct {
		Entries, Exits, Atomics, Spans, DisabledProbes uint64
	}
}

// NewMeasurement builds a measurement system against the host env.
func NewMeasurement(env Env, opts Options) *Measurement {
	oh := opts.Overhead
	if oh == nil {
		oh = ZeroOverheadModel()
	}
	rt := opts.Runtime
	if rt == 0 {
		rt = opts.Boot
	}
	return &Measurement{
		Reg:          NewRegistry(),
		env:          env,
		oh:           oh,
		compiled:     opts.Compiled,
		boot:         opts.Boot,
		runtime:      rt,
		traceCap:     opts.TraceCapacity,
		mapping:      opts.Mapping,
		retainExited: opts.RetainExited,
		live:         make(map[int]*TaskData),
		ctxNames:     []string{""},
	}
}

// Event registers (or looks up) an instrumentation point.
func (m *Measurement) Event(name string, group Group) EventID {
	return m.Reg.Register(name, group)
}

// Enabled reports whether instrumentation points in group g are active:
// compiled in, boot-enabled and runtime-enabled.
func (m *Measurement) Enabled(g Group) bool {
	return m.compiled&m.boot&m.runtime&g != 0
}

// CompiledIn reports whether group g was compiled into the kernel at all.
func (m *Measurement) CompiledIn(g Group) bool { return m.compiled&g != 0 }

// EnableRuntime turns groups on at runtime (the future-work "dynamic
// measurement control" the paper advocates; our reproduction implements it).
func (m *Measurement) EnableRuntime(g Group) { m.runtime |= g }

// DisableRuntime turns groups off at runtime.
func (m *Measurement) DisableRuntime(g Group) { m.runtime &^= g }

// RuntimeMask returns the current runtime enable mask.
func (m *Measurement) RuntimeMask() Group { return m.runtime }

// BootMask returns the boot-time enable mask.
func (m *Measurement) BootMask() Group { return m.boot }

// CompiledMask returns the compiled-in group mask.
func (m *Measurement) CompiledMask() Group { return m.compiled }

// Overhead exposes the overhead model (read-only use expected).
func (m *Measurement) Overhead() *OverheadModel { return m.oh }

// TraceCapacity reports the configured per-task ring size.
func (m *Measurement) TraceCapacity() int { return m.traceCap }

// MappingEnabled reports whether event mapping to user contexts is on.
func (m *Measurement) MappingEnabled() bool { return m.mapping }

// CreateTask allocates and attaches a measurement structure for a new
// process (called from the process-creation path, §4.2).
func (m *Measurement) CreateTask(pid int, name string) *TaskData {
	if _, dup := m.live[pid]; dup {
		panic(fmt.Sprintf("ktau: duplicate pid %d", pid))
	}
	m.createSeq++
	td := &TaskData{
		PID:        pid,
		Name:       name,
		CreatedTSC: m.env.Cycles(),
		trace:      NewRing(m.traceCap),
		createSeq:  m.createSeq,
		liveIdx:    len(m.liveOrder),
	}
	m.live[pid] = td
	m.liveOrder = append(m.liveOrder, td)
	return td
}

// ExitTask finalises a process's measurement structure on process death.
func (m *Measurement) ExitTask(td *TaskData) {
	if td.Exited {
		return
	}
	td.Exited = true
	td.ExitedTSC = m.env.Cycles()
	delete(m.live, td.PID)
	// Swap-delete: O(1) instead of splicing the slice. Creation order is
	// restored lazily (restoreLiveOrder) the next time someone reads the
	// list, so churny exit phases never pay O(n) per exit.
	if i, last := td.liveIdx, len(m.liveOrder)-1; i >= 0 && i <= last && m.liveOrder[i] == td {
		if i != last {
			m.liveOrder[i] = m.liveOrder[last]
			m.liveOrder[i].liveIdx = i
			m.liveDirty = true
		}
		m.liveOrder[last] = nil
		m.liveOrder = m.liveOrder[:last]
	}
	td.liveIdx = -1
	if m.retainExited {
		m.retired = append(m.retired, td)
	}
}

// restoreLiveOrder re-sorts liveOrder by creation sequence after swap-deletes
// have perturbed it.
func (m *Measurement) restoreLiveOrder() {
	if !m.liveDirty {
		return
	}
	slices.SortFunc(m.liveOrder, func(a, b *TaskData) int {
		return cmp.Compare(a.createSeq, b.createSeq)
	})
	for i, t := range m.liveOrder {
		t.liveIdx = i
	}
	m.liveDirty = false
}

// Task returns the live task data for pid, or nil.
func (m *Measurement) Task(pid int) *TaskData { return m.live[pid] }

// LiveTasks returns live task data in creation order (deterministic).
func (m *Measurement) LiveTasks() []*TaskData {
	m.restoreLiveOrder()
	out := make([]*TaskData, len(m.liveOrder))
	copy(out, m.liveOrder)
	return out
}

// AllTasks returns live tasks (creation order) followed by retained exited
// tasks (exit order).
func (m *Measurement) AllTasks() []*TaskData {
	live, retired := m.TaskLists()
	out := make([]*TaskData, 0, len(live)+len(retired))
	out = append(out, live...)
	return append(out, retired...)
}

// TaskLists returns the live tasks (creation order) and the retained exited
// tasks (exit order) without copying them: AllTasks is their concatenation.
// The slices are the measurement's own, to be read only, and only until the
// next task is created or exits.
func (m *Measurement) TaskLists() (live, retired []*TaskData) {
	m.restoreLiveOrder()
	return m.liveOrder, m.retired
}

// RegisterContext names a user-level mapping context (a TAU routine). It
// returns the context id that SetUserCtx accepts.
func (m *Measurement) RegisterContext(name string) int32 {
	for i, n := range m.ctxNames {
		if i > 0 && n == name {
			return int32(i)
		}
	}
	m.ctxNames = append(m.ctxNames, name)
	return int32(len(m.ctxNames) - 1)
}

// CtxName resolves a user context id to its registered name.
func (m *Measurement) CtxName(ctx int32) string {
	if ctx <= 0 || int(ctx) >= len(m.ctxNames) {
		return ""
	}
	return m.ctxNames[ctx]
}

// SetUserCtx publishes the process's current user-level context (set by the
// TAU integration when the application enters/leaves a routine). Costless by
// design: in the real system this is a store into a mapped page.
func (m *Measurement) SetUserCtx(td *TaskData, ctx int32) {
	td.userCtx = ctx
}

// Entry is the entry/exit event macro's start half.
func (m *Measurement) Entry(td *TaskData, ev EventID) {
	g := m.Reg.GroupOf(ev)
	if m.compiled&g == 0 {
		return // not compiled in: the instrumentation point does not exist
	}
	if !m.Enabled(g) {
		m.Stats.DisabledProbes++
		m.env.AddOverhead(m.oh.ProbeCycles)
		return
	}
	m.Stats.Entries++
	now := m.env.Cycles()
	td.ensure(ev)
	if n := len(td.stack); n > 0 {
		td.prof[td.stack[n-1].ev].Subrs++
	}
	f := frame{ev: ev, start: now, ctx: td.userCtx}
	if m.counterSrc != nil {
		f.ctrStart = m.counterSrc.Read(td.PID)
	}
	td.stack = append(td.stack, f)
	td.onStack[ev]++
	td.prof[ev].Calls++
	if td.trace != nil {
		td.trace.Put(Record{TSC: now, Ev: ev, Kind: KindEntry})
	}
	m.env.AddOverhead(m.oh.SampleStart())
}

// Exit is the entry/exit event macro's stop half. Unmatched exits (possible
// when runtime control flips between entry and exit) are counted and
// ignored.
func (m *Measurement) Exit(td *TaskData, ev EventID) {
	g := m.Reg.GroupOf(ev)
	if m.compiled&g == 0 {
		return
	}
	if !m.Enabled(g) {
		m.Stats.DisabledProbes++
		m.env.AddOverhead(m.oh.ProbeCycles)
		return
	}
	n := len(td.stack)
	if n == 0 {
		td.unmatchedExits++
		return
	}
	if td.stack[n-1].ev != ev {
		// Stack correction (as TAU performs): runtime control flipping
		// between an entry and its exit can leave stale frames. If a
		// matching activation exists deeper in the stack, abort the frames
		// above it (their exits were swallowed while disabled); otherwise
		// this exit itself is the orphan.
		found := -1
		for i := n - 1; i >= 0; i-- {
			if td.stack[i].ev == ev {
				found = i
				break
			}
		}
		if found < 0 {
			td.unmatchedExits++
			return
		}
		for len(td.stack) > found+1 {
			stale := td.stack[len(td.stack)-1]
			td.stack = td.stack[:len(td.stack)-1]
			td.onStack[stale.ev]--
			td.unmatchedExits++
		}
		n = found + 1
	}
	m.Stats.Exits++
	now := m.env.Cycles()
	f := td.stack[n-1]
	td.stack = td.stack[:n-1]
	td.onStack[ev]--

	dur := now - f.start
	d := &td.prof[ev]
	excl := dur - f.kids
	d.Excl += excl
	if td.onStack[ev] == 0 {
		d.Incl += dur // only outermost activation adds inclusive time
	}
	if n >= 2 {
		td.stack[n-2].kids += dur
	}
	var ctrExcl [MaxCounters]int64
	if m.counterSrc != nil {
		ctrNow := m.counterSrc.Read(td.PID)
		for i := range ctrExcl {
			delta := ctrNow[i] - f.ctrStart[i]
			ctrExcl[i] = delta - f.ctrKids[i]
			d.Ctr[i] += ctrExcl[i]
			if n >= 2 {
				td.stack[n-2].ctrKids[i] += delta
			}
		}
	}
	if m.mapping && f.ctx != 0 {
		md := td.mappedData(MapKey{Ctx: f.ctx, Ev: ev})
		md.Calls++
		md.Excl += excl
		md.Incl += dur
		if m.counterSrc != nil {
			for i := range ctrExcl {
				md.Ctr[i] += ctrExcl[i]
			}
		}
	}
	if td.trace != nil {
		td.trace.Put(Record{TSC: now, Ev: ev, Kind: KindExit})
	}
	m.env.AddOverhead(m.oh.SampleStop())
}

// Atomic is the atomic event macro: a stand-alone measurement with a value
// (e.g. bytes in a network packet).
func (m *Measurement) Atomic(td *TaskData, ev EventID, v float64) {
	g := m.Reg.GroupOf(ev)
	if m.compiled&g == 0 {
		return
	}
	if !m.Enabled(g) {
		m.Stats.DisabledProbes++
		m.env.AddOverhead(m.oh.ProbeCycles)
		return
	}
	m.Stats.Atomics++
	td.ensureAtomic(ev)
	td.atomics[ev].add(v)
	if m.mapping && td.userCtx != 0 {
		md := td.mappedData(MapKey{Ctx: td.userCtx, Ev: ev})
		md.Calls++
	}
	if td.trace != nil {
		td.trace.Put(Record{TSC: m.env.Cycles(), Ev: ev, Kind: KindAtomic, Val: int64(v)})
	}
	m.env.AddOverhead(m.oh.AtomicCycles)
}

// AddSpan credits a known-duration interval to an event without an on-CPU
// entry/exit pair. The scheduler uses it to account switched-out time: when
// a process is switched back in, the interval it spent out is added to its
// "schedule" (involuntary) or "schedule_vol" (voluntary) event — this is the
// schedule()/schedule_vol() instrumentation of paper §5.1.
func (m *Measurement) AddSpan(td *TaskData, ev EventID, cycles int64) {
	g := m.Reg.GroupOf(ev)
	if m.compiled&g == 0 {
		return
	}
	if !m.Enabled(g) {
		m.Stats.DisabledProbes++
		m.env.AddOverhead(m.oh.ProbeCycles)
		return
	}
	m.Stats.Spans++
	td.ensure(ev)
	d := &td.prof[ev]
	d.Calls++
	d.Incl += cycles
	d.Excl += cycles
	if m.mapping && td.userCtx != 0 {
		md := td.mappedData(MapKey{Ctx: td.userCtx, Ev: ev})
		md.Calls++
		md.Excl += cycles
		md.Incl += cycles
	}
	if td.trace != nil {
		now := m.env.Cycles()
		td.trace.Put(Record{TSC: now - cycles, Ev: ev, Kind: KindEntry})
		td.trace.Put(Record{TSC: now, Ev: ev, Kind: KindExit})
	}
	m.env.AddOverhead(m.oh.SampleStart())
	m.env.AddOverhead(m.oh.SampleStop())
}

// Reset zeroes a task's profile (runtime control operation).
func (m *Measurement) Reset(td *TaskData) {
	for i := range td.prof {
		td.prof[i] = EventData{}
	}
	for i := range td.atomics {
		td.atomics[i] = AtomicData{}
	}
	td.mapped = nil
	td.trace.Clear()
}

// sortedMappedKeys returns td's mapped keys in deterministic order, in the
// measurement's scratch: the result is valid until the next call.
func (m *Measurement) sortedMappedKeys(td *TaskData) []MapKey {
	keys := m.mapKeys[:0]
	for k := range td.mapped {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b MapKey) int {
		if c := cmp.Compare(a.Ctx, b.Ctx); c != 0 {
			return c
		}
		return cmp.Compare(a.Ev, b.Ev)
	})
	m.mapKeys = keys
	return keys
}
