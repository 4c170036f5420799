// Package libktau is the user-space access library of paper §4.4: it hides
// the /proc/ktau protocol behind a small API offering kernel control, data
// retrieval for self / other / all scopes, binary-to-ASCII conversion and
// formatted output. Clients — TAU's integration, the KTAUD daemon, runKtau —
// all go through this package rather than touching procfs directly, so they
// are insulated from kernel-side format changes.
package libktau

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ktau/internal/ktau"
	"ktau/internal/procfs"
)

// Scope selects whose data a retrieval targets (libKtau's self/other/all).
type Scope int

const (
	// ScopeSelf reads the calling process's own profile.
	ScopeSelf Scope = iota
	// ScopeOther reads one specific other process.
	ScopeOther
	// ScopeAll reads every process on the node.
	ScopeAll
	// ScopeKernelWide reads the aggregate kernel view.
	ScopeKernelWide
)

// Handle is an open connection to one node's /proc/ktau. It owns the
// scratch buffer its reads land in — the caller-allocated buffer of the
// two-call protocol — and reuses it from call to call; decoded results never
// alias it. A Handle therefore serves one goroutine at a time, as each
// collection agent opens its own.
type Handle struct {
	fs  *procfs.FS
	buf []byte
}

// Open returns a handle over the node's proc filesystem.
func Open(fs *procfs.FS) *Handle { return &Handle{fs: fs} }

// read runs the session-less two-call protocol (size, then read, retrying
// if the size grew between the calls — exactly the dance a real libKtau
// client performs) into the handle's scratch buffer.
func (h *Handle) read(size func() (int, error), read func([]byte) (int, error)) ([]byte, error) {
	blob, err := procfs.ReadRetry(h.buf, size, read, procfs.DefaultReadAttempts)
	if cap(blob) > cap(h.buf) {
		h.buf = blob[:0]
	}
	return blob, err
}

// GetProfiles retrieves profiles per the scope through the two-call
// protocol.
func (h *Handle) GetProfiles(scope Scope, pid int) ([]ktau.Snapshot, error) {
	target := pid
	switch scope {
	case ScopeAll:
		target = procfs.PIDAll
	case ScopeKernelWide:
		target = procfs.PIDKernelWide
	}
	blob, err := h.read(
		func() (int, error) { return h.fs.ProfileSize(target) },
		func(buf []byte) (int, error) { return h.fs.ProfileRead(target, buf) })
	if err != nil {
		return nil, err
	}
	return DecodeProfiles(blob)
}

// GetProfile retrieves a single profile (self/other/kernel-wide scopes).
func (h *Handle) GetProfile(scope Scope, pid int) (ktau.Snapshot, error) {
	snaps, err := h.GetProfiles(scope, pid)
	if err != nil {
		return ktau.Snapshot{}, err
	}
	if len(snaps) != 1 {
		return ktau.Snapshot{}, fmt.Errorf("libktau: got %d profiles, want 1", len(snaps))
	}
	return snaps[0], nil
}

// GetTrace drains and decodes a process's kernel trace buffer.
func (h *Handle) GetTrace(pid int) (TraceDump, error) {
	blob, err := h.read(
		func() (int, error) { return h.fs.TraceSize(pid) },
		func(buf []byte) (int, error) { return h.fs.TraceRead(pid, buf) })
	if err != nil {
		return TraceDump{}, err
	}
	return DecodeTrace(blob)
}

// EnableGroups turns instrumentation groups on at runtime.
func (h *Handle) EnableGroups(g ktau.Group) error {
	return h.fs.Control(procfs.CtlEnableGroups, int64(g))
}

// DisableGroups turns instrumentation groups off at runtime.
func (h *Handle) DisableGroups(g ktau.Group) error {
	return h.fs.Control(procfs.CtlDisableGroups, int64(g))
}

// Reset zeroes one process's profile, or all live profiles when pid ==
// procfs.PIDAll.
func (h *Handle) Reset(pid int) error {
	if pid == procfs.PIDAll {
		return h.fs.Control(procfs.CtlResetAll, 0)
	}
	return h.fs.Control(procfs.CtlResetPID, int64(pid))
}

// TraceDump is a decoded kernel trace buffer.
type TraceDump struct {
	PID     int
	Lost    uint64
	Records []ktau.Record
}

// ---- binary decoding ----

// Decode errors. Every blob that does not parse is one of these (or a bad
// magic or version); no input makes a decoder panic or allocate more than
// its own size justifies.
var (
	errTruncated = errors.New("libktau: truncated blob")
	errCount     = errors.New("libktau: element count exceeds blob")
	errTrailing  = errors.New("libktau: trailing bytes after blob")
	errFlag      = errors.New("libktau: exited flag is neither 0 nor 1")
	errCounters  = fmt.Errorf("libktau: more than %d counters", ktau.MaxCounters)
)

// Smallest packed size of each profile blob element (all strings empty):
// a decoded count of such elements is bounded by the bytes left divided by
// it. Trace records have the fixed width procfs.TraceRecordBytes.
const (
	minSnapBytes    = 8 + 2 + 8 + 8 + 8 + 1 + 8 + 2 + 4 + 4 + 4
	minCtrNameBytes = 2
	minEventBytes   = 4 + 4 + 8 + 8 + 8 + 8 + 2 // plus 8 per counter
	minAtomicBytes  = 4 + 4 + 8 + 5*8 + 2
	minMappedBytes  = 4 + 2 + 4 + 2 + 4 + 8 + 8 + 8
)

// reader decodes the little-endian blob layout. The first failure sticks:
// every later read returns zero, so each decode loop stops at the first
// error it sees.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n > len(r.b)-r.off {
		r.err = errTruncated
		return false
	}
	return true
}

// count validates a decoded element count before anything is sized from
// it: each element takes at least width bytes, so a count the bytes left
// cannot hold is damage. It is checked while still unsigned, so a huge value
// can neither wrap nor allocate (ship.Reader.Count's discipline).
func (r *reader) count(n uint32, width int) int {
	if r.err != nil {
		return 0
	}
	if uint64(n) > uint64((len(r.b)-r.off)/width) {
		r.err = errCount
		return 0
	}
	return int(n)
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string {
	n := int(r.u16())
	if !r.need(n) {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// header checks the magic and version every blob starts with.
func (r *reader) header() error {
	if r.u32() != procfs.Magic {
		if r.err != nil {
			return r.err
		}
		return errors.New("libktau: bad magic")
	}
	if v := r.u32(); v != procfs.Version {
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("libktau: unsupported version %d", v)
	}
	return nil
}

// end reports the first decode failure, or trailing bytes: a blob decodes
// only if it is exactly what procfs packs for the decoded value.
func (r *reader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = errTrailing
	}
	return r.err
}

// DecodeProfiles parses a binary profile blob from /proc/ktau/profile.
// Slices are sized from the blob's counts, which are bounded by the bytes
// left before anything is allocated.
func DecodeProfiles(blob []byte) ([]ktau.Snapshot, error) {
	r := &reader{b: blob}
	if err := r.header(); err != nil {
		return nil, err
	}
	count := r.count(r.u32(), minSnapBytes)
	out := make([]ktau.Snapshot, count)
	for i := 0; i < count && r.err == nil; i++ {
		s := &out[i]
		s.PID = int(r.i64())
		s.Name = r.str()
		s.TSC = r.i64()
		s.Created = r.i64()
		s.ExitedAt = r.i64()
		switch r.u8() {
		case 0:
		case 1:
			s.Exited = true
		default:
			r.err = errFlag
		}
		s.TraceLost = r.u64()
		nctr := int(r.u16())
		if nctr > ktau.MaxCounters {
			r.err = errCounters
		}
		nctr = r.count(uint32(nctr), minCtrNameBytes)
		if nctr > 0 {
			s.CounterNames = make([]string, nctr)
		}
		for j := 0; j < nctr && r.err == nil; j++ {
			s.CounterNames[j] = r.str()
		}
		nev := r.u32()
		nat := r.u32()
		nmap := r.u32()
		if n := r.count(nev, minEventBytes+8*nctr); n > 0 {
			s.Events = make([]ktau.EventSnap, n)
		}
		for j := 0; j < len(s.Events) && r.err == nil; j++ {
			e := &s.Events[j]
			e.ID = ktau.EventID(r.i32())
			e.Group = ktau.Group(r.u32())
			e.Calls = r.u64()
			e.Subrs = r.u64()
			e.Incl = r.i64()
			e.Excl = r.i64()
			for ci := 0; ci < nctr; ci++ {
				e.Ctr[ci] = r.i64()
			}
			e.Name = r.str()
		}
		if n := r.count(nat, minAtomicBytes); n > 0 {
			s.Atomics = make([]ktau.AtomicSnap, n)
		}
		for j := 0; j < len(s.Atomics) && r.err == nil; j++ {
			a := &s.Atomics[j]
			a.ID = ktau.EventID(r.i32())
			a.Group = ktau.Group(r.u32())
			a.Count = r.u64()
			a.Sum = r.f64()
			a.Min = r.f64()
			a.Max = r.f64()
			a.Mean = r.f64()
			a.Std = r.f64()
			a.Name = r.str()
		}
		if n := r.count(nmap, minMappedBytes); n > 0 {
			s.Mapped = make([]ktau.MappedSnap, n)
		}
		for j := 0; j < len(s.Mapped) && r.err == nil; j++ {
			m := &s.Mapped[j]
			m.Ctx = r.i32()
			m.CtxName = r.str()
			m.Ev = ktau.EventID(r.i32())
			m.EvName = r.str()
			m.Group = ktau.Group(r.u32())
			m.Calls = r.u64()
			m.Incl = r.i64()
			m.Excl = r.i64()
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeTrace parses a binary trace blob from /proc/ktau/trace. The record
// slice is sized from the blob's count, bounded by the bytes left.
func DecodeTrace(blob []byte) (TraceDump, error) {
	r := &reader{b: blob}
	if err := r.header(); err != nil {
		return TraceDump{}, err
	}
	var d TraceDump
	d.PID = int(r.i64())
	d.Lost = r.u64()
	if n := r.count(r.u32(), procfs.TraceRecordBytes); n > 0 {
		d.Records = make([]ktau.Record, n)
	}
	for i := 0; i < len(d.Records) && r.err == nil; i++ {
		rec := &d.Records[i]
		rec.TSC = r.i64()
		rec.Ev = ktau.EventID(r.i32())
		rec.Kind = ktau.RecordKind(r.u8())
		rec.Val = r.i64()
	}
	if err := r.end(); err != nil {
		return TraceDump{}, err
	}
	return d, nil
}
