// Package procfs emulates the /proc/ktau interface of paper §4.3: the
// standard mechanism through which user-space clients reach the in-kernel
// measurement system. Two entries exist, profile and trace, and the
// protocol is deliberately session-less: a read is two independent
// operations — query the size, then retrieve the data into a caller-
// allocated buffer — with no state kept between calls (the size may change
// in between; callers must be prepared to retry). Control operations mirror
// the ioctls libKtau issues.
package procfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"ktau/internal/ktau"
)

// Well-known pseudo-PIDs.
const (
	// PIDKernelWide addresses the aggregate kernel-wide profile.
	PIDKernelWide = -1
	// PIDAll addresses all processes at once (KTAUD's 'all' mode).
	PIDAll = 0
)

// Magic and version of the binary profile format.
const (
	Magic   = 0x4b544155 // "KTAU"
	Version = 3
)

// ErrShortBuffer reports a read into a too-small buffer; Needed is the size
// required at the moment of the call (it may differ from an earlier Size
// result — the interface is session-less by design).
type ErrShortBuffer struct{ Needed int }

func (e ErrShortBuffer) Error() string {
	return fmt.Sprintf("procfs: buffer too small, need %d bytes", e.Needed)
}

// ErrNoSuchPID reports an unknown process.
var ErrNoSuchPID = errors.New("procfs: no such pid")

// ErrTransient reports a transient read failure (the fault layer's model of
// a momentarily unreadable /proc entry, e.g. copy_to_user hitting a paged-out
// buffer). Unlike ErrShortBuffer it carries no corrective size: the caller's
// only recourse is to back off and try the whole two-call protocol again.
var ErrTransient = errors.New("procfs: transient read error")

// FaultHook is consulted before every read-side operation; returning a
// non-nil error fails the operation with it. op names the entry point
// ("profile.size", "profile.read", "trace.size", "trace.read").
type FaultHook func(op string) error

// FS is one node's /proc/ktau.
type FS struct {
	m     *ktau.Measurement
	fault FaultHook

	// snapBuf is per-FS scratch reused across reads: snapshots are
	// materialised transiently (measured or packed, then discarded), so each
	// read refills the same entries instead of reallocating them. An FS is
	// used from a single node's engine goroutine, like the kernel it fronts.
	snapBuf []ktau.Snapshot
}

// New exposes a measurement system through the proc interface.
func New(m *ktau.Measurement) *FS { return &FS{m: m} }

// SetFaultHook installs (or with nil clears) the fault-injection hook.
func (fs *FS) SetFaultHook(h FaultHook) { fs.fault = h }

// checkFault runs the installed fault hook, if any.
func (fs *FS) checkFault(op string) error {
	if fs.fault == nil {
		return nil
	}
	return fs.fault(op)
}

// Measurement returns the underlying measurement system (for tests).
func (fs *FS) Measurement() *ktau.Measurement { return fs.m }

// snapshots materialises the snapshots a pid selector addresses, into the
// FS's reused scratch buffer (valid until the next call).
func (fs *FS) snapshots(pid int) ([]ktau.Snapshot, error) {
	switch pid {
	case PIDKernelWide:
		fs.growSnapBuf(1)
		fs.m.KernelWideInto(&fs.snapBuf[0])
		return fs.snapBuf[:1], nil
	case PIDAll:
		tasks := fs.m.AllTasks()
		fs.growSnapBuf(len(tasks))
		for i, td := range tasks {
			fs.m.SnapshotTaskInto(td, &fs.snapBuf[i])
		}
		return fs.snapBuf[:len(tasks)], nil
	default:
		td := fs.m.Task(pid)
		if td == nil {
			// Retained exited tasks are still readable.
			for _, t := range fs.m.AllTasks() {
				if t.PID == pid {
					td = t
					break
				}
			}
			if td == nil {
				return nil, ErrNoSuchPID
			}
		}
		fs.growSnapBuf(1)
		fs.m.SnapshotTaskInto(td, &fs.snapBuf[0])
		return fs.snapBuf[:1], nil
	}
}

// growSnapBuf extends the snapshot scratch to at least n entries, keeping
// the slice capacities already accumulated in existing entries.
func (fs *FS) growSnapBuf(n int) {
	for len(fs.snapBuf) < n {
		fs.snapBuf = append(fs.snapBuf, ktau.Snapshot{})
	}
}

// ProfileSize returns the bytes needed to read the profile(s) of pid right
// now (first half of the session-less two-call protocol). It measures the
// blob without building it.
func (fs *FS) ProfileSize(pid int) (int, error) {
	if err := fs.checkFault("profile.size"); err != nil {
		return 0, err
	}
	snaps, err := fs.snapshots(pid)
	if err != nil {
		return 0, err
	}
	return profilesSize(snaps), nil
}

// ProfileRead packs the profile(s) of pid into buf, returning the bytes
// written. If buf is too small for the data as it exists *now*, it returns
// ErrShortBuffer with the currently needed size.
func (fs *FS) ProfileRead(pid int, buf []byte) (int, error) {
	if err := fs.checkFault("profile.read"); err != nil {
		return 0, err
	}
	snaps, err := fs.snapshots(pid)
	if err != nil {
		return 0, err
	}
	n := profilesSize(snaps)
	if len(buf) < n {
		return 0, ErrShortBuffer{Needed: n}
	}
	packProfiles(&packer{b: buf[:n]}, snaps)
	return n, nil
}

// TraceSize returns the bytes needed to read pid's trace buffer now.
func (fs *FS) TraceSize(pid int) (int, error) {
	if err := fs.checkFault("trace.size"); err != nil {
		return 0, err
	}
	td, err := fs.taskData(pid)
	if err != nil {
		return 0, err
	}
	return traceSize(td.Trace().Len()), nil
}

// TraceRead drains pid's circular trace buffer into buf (records are
// consumed, as reading /proc/ktau/trace consumes them). The records are
// packed straight from the ring's storage, which is then emptied in place.
func (fs *FS) TraceRead(pid int, buf []byte) (int, error) {
	if err := fs.checkFault("trace.read"); err != nil {
		return 0, err
	}
	td, err := fs.taskData(pid)
	if err != nil {
		return 0, err
	}
	ring := td.Trace()
	n := traceSize(ring.Len())
	if len(buf) < n {
		return 0, ErrShortBuffer{Needed: n}
	}
	// Only consume once the caller's buffer is known to fit.
	a, b := ring.Parts()
	packTrace(&packer{b: buf[:n]}, td.PID, ring.Lost(), a, b)
	ring.Clear()
	return n, nil
}

func (fs *FS) taskData(pid int) (*ktau.TaskData, error) {
	if td := fs.m.Task(pid); td != nil {
		return td, nil
	}
	for _, t := range fs.m.AllTasks() {
		if t.PID == pid {
			return t, nil
		}
	}
	return nil, ErrNoSuchPID
}

// ---- control ioctls ----

// CtlOp is a control operation code.
type CtlOp int

const (
	// CtlEnableGroups turns instrumentation groups on at runtime.
	CtlEnableGroups CtlOp = iota + 1
	// CtlDisableGroups turns groups off at runtime.
	CtlDisableGroups
	// CtlResetPID zeroes one process's profile (arg = pid).
	CtlResetPID
	// CtlResetAll zeroes every live process's profile.
	CtlResetAll
)

// Control issues a control operation. For group ops arg is a ktau.Group
// mask; for CtlResetPID it is the pid.
func (fs *FS) Control(op CtlOp, arg int64) error {
	switch op {
	case CtlEnableGroups:
		fs.m.EnableRuntime(ktau.Group(arg))
	case CtlDisableGroups:
		fs.m.DisableRuntime(ktau.Group(arg))
	case CtlResetPID:
		td, err := fs.taskData(int(arg))
		if err != nil {
			return err
		}
		fs.m.Reset(td)
	case CtlResetAll:
		for _, td := range fs.m.LiveTasks() {
			fs.m.Reset(td)
		}
	default:
		return fmt.Errorf("procfs: unknown control op %d", op)
	}
	return nil
}

// ---- binary packing ----

// packer writes the blob layout. The layout is defined once, by the pack
// functions below: with b nil a packer only measures (n advances by each
// field's width), so a size query and a read walk the same code and cannot
// disagree. With b non-nil, b must be exactly as long as the measured size.
type packer struct {
	b []byte
	n int
}

func (p *packer) u8(v uint8) {
	if p.b != nil {
		p.b[p.n] = v
	}
	p.n++
}

func (p *packer) u16(v uint16) {
	if p.b != nil {
		binary.LittleEndian.PutUint16(p.b[p.n:], v)
	}
	p.n += 2
}

func (p *packer) u32(v uint32) {
	if p.b != nil {
		binary.LittleEndian.PutUint32(p.b[p.n:], v)
	}
	p.n += 4
}

func (p *packer) u64(v uint64) {
	if p.b != nil {
		binary.LittleEndian.PutUint64(p.b[p.n:], v)
	}
	p.n += 8
}

func (p *packer) i32(v int32)   { p.u32(uint32(v)) }
func (p *packer) i64(v int64)   { p.u64(uint64(v)) }
func (p *packer) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p *packer) str(s string) { // length-prefixed
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	p.u16(uint16(len(s)))
	if p.b != nil {
		copy(p.b[p.n:], s)
	}
	p.n += len(s)
}

// AppendProfiles appends the profile blob of snaps to b: the bytes
// ProfileRead writes for them.
func AppendProfiles(b []byte, snaps []ktau.Snapshot) []byte {
	n := profilesSize(snaps)
	b = slices.Grow(b, n)
	packProfiles(&packer{b: b[len(b) : len(b)+n]}, snaps)
	return b[:len(b)+n]
}

// profilesSize measures the profile blob of snaps without building it.
func profilesSize(snaps []ktau.Snapshot) int {
	var p packer
	packProfiles(&p, snaps)
	return p.n
}

// packProfiles serialises snapshots with a count header.
func packProfiles(p *packer, snaps []ktau.Snapshot) {
	p.u32(Magic)
	p.u32(Version)
	p.u32(uint32(len(snaps)))
	for i := range snaps {
		packOne(p, &snaps[i])
	}
}

func packOne(p *packer, s *ktau.Snapshot) {
	p.i64(int64(s.PID))
	p.str(s.Name)
	p.i64(s.TSC)
	p.i64(s.Created)
	p.i64(s.ExitedAt)
	if s.Exited {
		p.u8(1)
	} else {
		p.u8(0)
	}
	p.u64(s.TraceLost)
	p.u16(uint16(len(s.CounterNames)))
	for _, n := range s.CounterNames {
		p.str(n)
	}
	p.u32(uint32(len(s.Events)))
	p.u32(uint32(len(s.Atomics)))
	p.u32(uint32(len(s.Mapped)))
	for i := range s.Events {
		e := &s.Events[i]
		p.i32(int32(e.ID))
		p.u32(uint32(e.Group))
		p.u64(e.Calls)
		p.u64(e.Subrs)
		p.i64(e.Incl)
		p.i64(e.Excl)
		for ci := 0; ci < len(s.CounterNames); ci++ {
			p.i64(e.Ctr[ci])
		}
		p.str(e.Name)
	}
	for i := range s.Atomics {
		a := &s.Atomics[i]
		p.i32(int32(a.ID))
		p.u32(uint32(a.Group))
		p.u64(a.Count)
		p.f64(a.Sum)
		p.f64(a.Min)
		p.f64(a.Max)
		p.f64(a.Mean)
		p.f64(a.Std)
		p.str(a.Name)
	}
	for i := range s.Mapped {
		m := &s.Mapped[i]
		p.i32(m.Ctx)
		p.str(m.CtxName)
		p.i32(int32(m.Ev))
		p.str(m.EvName)
		p.u32(uint32(m.Group))
		p.u64(m.Calls)
		p.i64(m.Incl)
		p.i64(m.Excl)
	}
}

// Trace blob layout: a fixed header (magic, version, pid, lost count,
// record count) followed by fixed-width records.
const (
	traceHeaderBytes = 4 + 4 + 8 + 8 + 4
	// TraceRecordBytes is the packed width of one trace record: TSC (8),
	// event id (4), kind (1) and value (8).
	TraceRecordBytes = 8 + 4 + 1 + 8
)

// traceSize is the blob size of a trace read carrying n records.
func traceSize(n int) int { return traceHeaderBytes + n*TraceRecordBytes }

// AppendTrace appends the trace blob of one ring's records to b: the bytes
// TraceRead writes for a ring of task pid holding recs with lost overwrites.
func AppendTrace(b []byte, pid int, lost uint64, recs []ktau.Record) []byte {
	n := traceSize(len(recs))
	b = slices.Grow(b, n)
	packTrace(&packer{b: b[len(b) : len(b)+n]}, pid, lost, recs, nil)
	return b[:len(b)+n]
}

// packTrace serialises one task's trace records, given as the ring's two
// chronological parts a then b.
func packTrace(p *packer, pid int, lost uint64, a, b []ktau.Record) {
	p.u32(Magic)
	p.u32(Version)
	p.i64(int64(pid))
	p.u64(lost)
	p.u32(uint32(len(a) + len(b)))
	for _, part := range [2][]ktau.Record{a, b} {
		for i := range part {
			r := &part[i]
			p.i64(r.TSC)
			p.i32(int32(r.Ev))
			p.u8(uint8(r.Kind))
			p.i64(r.Val)
		}
	}
}
