// Package libktau is the user-space access library of paper §4.4: it hides
// the /proc/ktau protocol behind a small API offering kernel control, data
// retrieval for self / other / all scopes, binary-to-ASCII conversion and
// formatted output. Clients — TAU's integration, the KTAUD daemon, runKtau —
// all go through this package rather than touching procfs directly, so they
// are insulated from kernel-side format changes.
package libktau

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ktau/internal/ktau"
	"ktau/internal/procfs"
	"ktau/internal/ship"
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
	return h.GetProfilesInto(nil, scope, pid)
}

// GetProfilesInto is GetProfiles decoding into dst's storage, as
// DecodeProfilesInto does: a collection loop that passes each result back
// in reads without allocating once its storage has reached the working
// size.
func (h *Handle) GetProfilesInto(dst []ktau.Snapshot, scope Scope, pid int) ([]ktau.Snapshot, error) {
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
		return dst[:0], err
	}
	return DecodeProfilesInto(dst, blob)
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
	return h.GetTraceInto(nil, pid)
}

// GetTraceInto is GetTrace decoding the records into dst's storage, as
// DecodeTraceInto does: a drain loop that passes each result's Records back
// in reads without allocating once that storage has reached the working
// size.
func (h *Handle) GetTraceInto(dst []ktau.Record, pid int) (TraceDump, error) {
	blob, err := h.read(
		func() (int, error) { return h.fs.TraceSize(pid) },
		func(buf []byte) (int, error) { return h.fs.TraceRead(pid, buf) })
	if err != nil {
		return TraceDump{Records: dst[:0]}, err
	}
	return DecodeTraceInto(dst, blob)
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

// header checks the magic and version every blob starts with.
func header(r *ship.Reader) error {
	if r.U32() != procfs.Magic {
		if r.Err() != nil {
			return decodeErr(r.Err())
		}
		return errors.New("libktau: bad magic")
	}
	if v := r.U32(); v != procfs.Version {
		if r.Err() != nil {
			return decodeErr(r.Err())
		}
		return fmt.Errorf("libktau: unsupported version %d", v)
	}
	return nil
}

// end reports the first decode failure, or trailing bytes: a blob decodes
// only if it is exactly what procfs packs for the decoded value. A byte
// read past the decoded value fails only when the blob ends there.
func end(r *ship.Reader) error {
	if r.Err() != nil {
		return decodeErr(r.Err())
	}
	if r.U8(); r.Err() == nil {
		return errTrailing
	}
	return nil
}

// decodeErr maps the wire reader's errors to libktau's.
func decodeErr(err error) error {
	switch err {
	case ship.ErrTruncated:
		return errTruncated
	case ship.ErrCount:
		return errCount
	}
	return err
}

// DecodeProfiles parses a binary profile blob from /proc/ktau/profile.
// Slices are sized from the blob's counts, which are bounded by the bytes
// left before anything is allocated. The result aliases nothing.
func DecodeProfiles(blob []byte) ([]ktau.Snapshot, error) {
	snaps, err := DecodeProfilesInto(nil, blob)
	if err != nil {
		return nil, err
	}
	return snaps, nil
}

// DecodeProfilesInto is DecodeProfiles decoding into dst's storage: every
// field of each reused snapshot, event, atomic and mapped record is reset,
// a slice grows only when its capacity is short, and a name equal to the
// one already in its slot is kept rather than copied again. dst must be
// storage only the caller holds, such as an earlier result (which this
// decode overwrites); nil decodes into fresh storage. On an error the
// result is empty but keeps the storage for the next call.
func DecodeProfilesInto(dst []ktau.Snapshot, blob []byte) ([]ktau.Snapshot, error) {
	r := ship.NewReader(blob)
	if err := header(&r); err != nil {
		return dst[:0], err
	}
	nsnap := r.CountOf(uint64(r.U32()), minSnapBytes)
	out := slices.Grow(dst[:0], nsnap)[:nsnap]
	for i := 0; i < len(out) && r.Err() == nil; i++ {
		s := &out[i]
		s.PID = int(r.I64())
		s.Name = r.StrReuse(s.Name)
		s.TSC = r.I64()
		s.Created = r.I64()
		s.ExitedAt = r.I64()
		s.Exited = false
		switch r.U8() {
		case 0:
		case 1:
			s.Exited = true
		default:
			r.Fail(errFlag)
		}
		s.TraceLost = r.U64()
		nctr := int(r.U16())
		if nctr > ktau.MaxCounters {
			r.Fail(errCounters)
		}
		nctr = r.CountOf(uint64(nctr), minCtrNameBytes)
		s.CounterNames = slices.Grow(s.CounterNames[:0], nctr)[:nctr]
		for j := 0; j < nctr && r.Err() == nil; j++ {
			s.CounterNames[j] = r.StrReuse(s.CounterNames[j])
		}
		nev := r.U32()
		nat := r.U32()
		nmap := r.U32()
		n := r.CountOf(uint64(nev), minEventBytes+8*nctr)
		s.Events = slices.Grow(s.Events[:0], n)[:n]
		for j := 0; j < len(s.Events) && r.Err() == nil; j++ {
			e := &s.Events[j]
			e.ID = ktau.EventID(int32(r.U32()))
			e.Group = ktau.Group(r.U32())
			e.Calls = r.U64()
			e.Subrs = r.U64()
			e.Incl = r.I64()
			e.Excl = r.I64()
			e.Ctr = [ktau.MaxCounters]int64{}
			for ci := 0; ci < nctr; ci++ {
				e.Ctr[ci] = r.I64()
			}
			e.Name = r.StrReuse(e.Name)
		}
		n = r.CountOf(uint64(nat), minAtomicBytes)
		s.Atomics = slices.Grow(s.Atomics[:0], n)[:n]
		for j := 0; j < len(s.Atomics) && r.Err() == nil; j++ {
			a := &s.Atomics[j]
			a.ID = ktau.EventID(int32(r.U32()))
			a.Group = ktau.Group(r.U32())
			a.Count = r.U64()
			a.Sum = math.Float64frombits(r.U64())
			a.Min = math.Float64frombits(r.U64())
			a.Max = math.Float64frombits(r.U64())
			a.Mean = math.Float64frombits(r.U64())
			a.Std = math.Float64frombits(r.U64())
			a.Name = r.StrReuse(a.Name)
		}
		n = r.CountOf(uint64(nmap), minMappedBytes)
		s.Mapped = slices.Grow(s.Mapped[:0], n)[:n]
		for j := 0; j < len(s.Mapped) && r.Err() == nil; j++ {
			m := &s.Mapped[j]
			m.Ctx = int32(r.U32())
			m.CtxName = r.StrReuse(m.CtxName)
			m.Ev = ktau.EventID(int32(r.U32()))
			m.EvName = r.StrReuse(m.EvName)
			m.Group = ktau.Group(r.U32())
			m.Calls = r.U64()
			m.Incl = r.I64()
			m.Excl = r.I64()
		}
	}
	if err := end(&r); err != nil {
		return out[:0], err
	}
	return out, nil
}

// DecodeTrace parses a binary trace blob from /proc/ktau/trace. The record
// slice is sized from the blob's count, bounded by the bytes left. The
// result aliases nothing.
func DecodeTrace(blob []byte) (TraceDump, error) {
	d, err := DecodeTraceInto(nil, blob)
	if err != nil {
		return TraceDump{}, err
	}
	return d, nil
}

// DecodeTraceInto is DecodeTrace decoding the records into dst's storage:
// every field of each record is overwritten, and the slice grows only when
// its capacity is short. dst must be storage only the caller holds, such as
// an earlier result's Records (which this decode overwrites); nil decodes
// into fresh storage. On an error the result's Records are empty but keep
// the storage for the next call.
func DecodeTraceInto(dst []ktau.Record, blob []byte) (TraceDump, error) {
	r := ship.NewReader(blob)
	if err := header(&r); err != nil {
		return TraceDump{Records: dst[:0]}, err
	}
	var d TraceDump
	d.PID = int(r.I64())
	d.Lost = r.U64()
	n := r.CountOf(uint64(r.U32()), procfs.TraceRecordBytes)
	d.Records = slices.Grow(dst[:0], n)[:n]
	for i := 0; i < len(d.Records) && r.Err() == nil; i++ {
		rec := &d.Records[i]
		rec.TSC = r.I64()
		rec.Ev = ktau.EventID(int32(r.U32()))
		rec.Kind = ktau.RecordKind(r.U8())
		rec.Val = r.I64()
	}
	if err := end(&r); err != nil {
		return TraceDump{Records: d.Records[:0]}, err
	}
	return d, nil
}
