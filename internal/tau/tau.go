// Package tau is the user-level half of the integrated measurement story:
// a TAU-like source-instrumentation profiler for application routines. Each
// simulated process owns a Profiler; routine entry/exit timestamps come from
// the same virtual TSC the kernel's KTAU instrumentation uses, so user and
// kernel profiles share a timebase and can be merged (paper §4.5, Fig. 2-D).
//
// On routine entry the profiler publishes the routine as the process's KTAU
// mapping context, which is how kernel events occurring inside MPI_Recv or
// inside a compute phase are attributed to that routine (Figs. 4 and 9).
package tau

import (
	"sort"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
)

// Options configures a Profiler.
type Options struct {
	// Enabled turns user-level measurement on (the ProfAll+Tau configuration
	// of the perturbation study). A disabled profiler records nothing and
	// costs nothing.
	Enabled bool
	// OverheadPerOp is the cost of one start or stop operation, charged to
	// the task's user time (a TAU timer start is a few hundred ns of rdtsc
	// plus hashing).
	OverheadPerOp time.Duration
	// TraceCapacity enables user-level event tracing with the given ring
	// capacity (records), for merged user/kernel timeline views (Fig. 2-E).
	TraceCapacity int
	// CallPaths additionally records parent⇒child edge events ("a => b"),
	// TAU's call-path profiling.
	CallPaths bool
}

// DefaultOptions enables profiling with an era-plausible per-op cost.
func DefaultOptions() Options {
	return Options{Enabled: true, OverheadPerOp: 400 * time.Nanosecond}
}

// EventData is one user routine's profile record.
type EventData struct {
	Name  string
	Calls uint64
	Subrs uint64
	Incl  int64 // cycles
	Excl  int64 // cycles
}

// Record is a user-level trace record.
type Record struct {
	TSC   int64
	Name  string
	Entry bool
}

type uframe struct {
	idx   int
	start int64
	kids  int64
}

// Profiler measures one process's user-level routines.
type Profiler struct {
	u    *kernel.UCtx
	m    *ktau.Measurement
	opts Options

	events  []*EventData
	byName  map[string]int
	onStack []int32
	stack   []uframe
	ctxIDs  []int32 // per event: KTAU mapping context id

	// trace buffers the records since the last drain; traceSpare is the
	// storage the previous drain returned, which the next drain refills.
	trace      []Record
	traceSpare []Record
	traceLost  uint64

	phases     []*PhaseProfile
	phaseIdx   map[string]int
	phaseStack []phaseFrame

	edges map[string]*EventData // call-path "parent => child" events
}

// New creates a profiler bound to the calling task. Must be invoked from
// the task's own goroutine (normally first thing in its Program).
func New(u *kernel.UCtx, opts Options) *Profiler {
	return &Profiler{
		u:      u,
		m:      u.Kernel().Ktau(),
		opts:   opts,
		byName: make(map[string]int),
	}
}

// Enabled reports whether the profiler records anything.
func (p *Profiler) Enabled() bool { return p.opts.Enabled }

func (p *Profiler) event(name string) int {
	if i, ok := p.byName[name]; ok {
		return i
	}
	i := len(p.events)
	p.events = append(p.events, &EventData{Name: name})
	p.onStack = append(p.onStack, 0)
	p.ctxIDs = append(p.ctxIDs, p.m.RegisterContext(name))
	p.byName[name] = i
	return i
}

// Start enters the named routine: the TAU entry macro.
func (p *Profiler) Start(name string) {
	if !p.opts.Enabled {
		return
	}
	i := p.event(name)
	now := p.u.Cycles()
	if n := len(p.stack); n > 0 {
		p.events[p.stack[n-1].idx].Subrs++
	}
	p.stack = append(p.stack, uframe{idx: i, start: now})
	p.onStack[i]++
	p.events[i].Calls++
	p.u.SetKtauCtx(p.ctxIDs[i])
	p.traceAppend(Record{TSC: now, Name: name, Entry: true})
	p.u.Charge(p.opts.OverheadPerOp)
}

// Stop leaves the named routine: the TAU exit macro. Stops must match the
// innermost Start; a mismatch panics, as an instrumentation bug in the
// workload should fail loudly.
func (p *Profiler) Stop(name string) {
	if !p.opts.Enabled {
		return
	}
	n := len(p.stack)
	if n == 0 {
		panic("tau: Stop(" + name + ") with empty stack")
	}
	f := p.stack[n-1]
	ev := p.events[f.idx]
	if ev.Name != name {
		panic("tau: Stop(" + name + ") does not match Start(" + ev.Name + ")")
	}
	now := p.u.Cycles()
	p.stack = p.stack[:n-1]
	p.onStack[f.idx]--
	dur := now - f.start
	excl := dur - f.kids
	ev.Excl += excl
	if p.onStack[f.idx] == 0 {
		ev.Incl += dur
	}
	p.attributeToPhase(ev.Name, excl)
	if n >= 2 {
		p.stack[n-2].kids += dur
		p.u.SetKtauCtx(p.ctxIDs[p.stack[n-2].idx])
		if p.opts.CallPaths {
			parent := p.events[p.stack[n-2].idx].Name
			edge := parent + " => " + ev.Name
			if p.edges == nil {
				p.edges = map[string]*EventData{}
			}
			ed := p.edges[edge]
			if ed == nil {
				ed = &EventData{Name: edge}
				p.edges[edge] = ed
			}
			ed.Calls++
			ed.Incl += dur
			ed.Excl += excl
		}
	} else {
		p.u.SetKtauCtx(0)
	}
	p.traceAppend(Record{TSC: now, Name: name, Entry: false})
	p.u.Charge(p.opts.OverheadPerOp)
}

// Timed runs fn inside Start/Stop of the named routine.
func (p *Profiler) Timed(name string, fn func()) {
	p.Start(name)
	fn()
	p.Stop(name)
}

func (p *Profiler) traceAppend(r Record) {
	if p.opts.TraceCapacity <= 0 {
		return
	}
	if len(p.trace) >= p.opts.TraceCapacity {
		p.trace = p.trace[1:]
		p.traceLost++
	}
	p.trace = append(p.trace, r)
}

// Trace returns the buffered user-level records in order.
func (p *Profiler) Trace() []Record {
	out := make([]Record, len(p.trace))
	copy(out, p.trace)
	return out
}

// DrainTrace returns the buffered user-level records in order and clears the
// buffer, so a streaming consumer (the tracepipe agent) sees each record
// exactly once. The lost counter keeps accumulating across drains. The
// profiler alternates between two buffers of its own: the returned slice
// is valid until the next DrainTrace, after which new records are written
// into its storage.
func (p *Profiler) DrainTrace() []Record {
	out := p.trace
	p.trace, p.traceSpare = p.traceSpare[:0], out
	return out
}

// TraceLost returns how many buffered records were dropped (oldest first)
// because the ring filled faster than it was drained. Cumulative.
func (p *Profiler) TraceLost() uint64 { return p.traceLost }

// Profile is a self-contained snapshot of a process's user-level profile.
type Profile struct {
	Task   string
	Rank   int
	Events []EventData
}

// Snapshot exports the profile (events sorted by descending exclusive
// time); call-path edge events ("a => b") are included when enabled.
func (p *Profiler) Snapshot(task string, rank int) Profile {
	out := Profile{Task: task, Rank: rank}
	for _, e := range p.events {
		out.Events = append(out.Events, *e)
	}
	edgeNames := make([]string, 0, len(p.edges))
	for name := range p.edges {
		edgeNames = append(edgeNames, name)
	}
	sort.Strings(edgeNames)
	for _, name := range edgeNames {
		out.Events = append(out.Events, *p.edges[name])
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].Excl > out.Events[j].Excl
	})
	return out
}

// Find returns the record for a routine, or nil.
func (pr Profile) Find(name string) *EventData {
	for i := range pr.Events {
		if pr.Events[i].Name == name {
			return &pr.Events[i]
		}
	}
	return nil
}

// StackDepth reports the live activation depth (tests).
func (p *Profiler) StackDepth() int { return len(p.stack) }
