package ktau

// RecordKind discriminates trace record types.
type RecordKind uint8

const (
	// KindEntry marks entry into an entry/exit instrumented region.
	KindEntry RecordKind = iota + 1
	// KindExit marks exit from an entry/exit instrumented region.
	KindExit
	// KindAtomic records a stand-alone atomic event with a value.
	KindAtomic
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case KindEntry:
		return "ENTRY"
	case KindExit:
		return "EXIT"
	case KindAtomic:
		return "ATOMIC"
	default:
		return "?"
	}
}

// Record is one kernel trace event: a timestamp (in cycles, from the virtual
// TSC), the instrumentation point, the record kind and an optional value
// (atomic events carry their measurement; entry/exit records carry 0).
type Record struct {
	TSC  int64
	Ev   EventID
	Kind RecordKind
	Val  int64
}

// Ring is the fixed-size circular per-process trace buffer of paper §4.2.
// When the writer outruns the reader, the oldest records are overwritten and
// counted as lost — the paper notes "trace data may be lost if the buffer is
// not read fast enough by user-space applications or daemons".
//
// The ring holds up to its configured capacity, but its storage is grown on
// demand: none at creation, ringInitial records at the first Put, then
// doubling up to the capacity. A ring that a reader keeps draining holds
// host memory for the records it buffers, not for its capacity; which
// records are kept and which are lost does not change.
type Ring struct {
	// buf holds the live records: len(buf) is how many, cap(buf) the
	// storage allocated so far. Until the ring is full they run from buf[0]
	// in order; once len(buf) reaches capacity, head is the oldest and each
	// Put overwrites it.
	buf      []Record
	head     int
	capacity int
	lost     uint64
	cleared  uint64 // records emptied out by Clear
}

// ringInitial is the storage a ring allocates at its first Put.
const ringInitial = 64

// NewRing returns a ring holding up to capacity records. Capacity <= 0
// returns a nil ring, meaning tracing is disabled for the task. No storage
// is allocated until the first Put.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{capacity: capacity}
}

// Put appends a record, overwriting the oldest when full.
func (r *Ring) Put(rec Record) {
	if r != nil && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.putSlow(rec)
	}
}

// putSlow is Put into a ring whose storage has no free slot: a full ring
// overwrites its oldest record, counting it lost; otherwise the storage
// doubles, up to the capacity. It is kept out of Put so that Put stays
// inlinable.
//
//go:noinline
func (r *Ring) putSlow(rec Record) {
	if r == nil {
		return
	}
	if len(r.buf) == r.capacity {
		r.buf[r.head] = rec
		r.head = (r.head + 1) % len(r.buf)
		r.lost++
		return
	}
	buf := make([]Record, len(r.buf), min(max(2*cap(r.buf), ringInitial), r.capacity))
	copy(buf, r.buf)
	r.buf = append(buf, rec)
}

// Len reports the number of records currently buffered.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Cap reports the buffer's configured capacity, however much of it is
// allocated so far.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// Lost reports how many records were overwritten before being read.
func (r *Ring) Lost() uint64 {
	if r == nil {
		return 0
	}
	return r.lost
}

// Total reports how many records were ever written: each one is buffered,
// was overwritten or was emptied out by Clear.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.cleared + uint64(len(r.buf)) + r.lost
}

// Parts returns the buffered records in chronological order as two views
// of the ring's storage: first a, then b (b is empty unless the live region
// wraps past the end of the buffer). Nothing is copied; the views alias the
// ring and are valid until the next Put or Clear.
func (r *Ring) Parts() (a, b []Record) {
	if r == nil || len(r.buf) == 0 {
		return nil, nil
	}
	if r.head == 0 {
		return r.buf, nil
	}
	return r.buf[r.head:], r.buf[:r.head]
}

// Clear empties the ring without copying its records and keeps its
// storage; the lost and total counters keep their values. Together with
// Parts this is what a read through /proc/ktau/trace performs.
func (r *Ring) Clear() {
	if r != nil {
		r.cleared += uint64(len(r.buf))
		r.buf = r.buf[:0]
		r.head = 0
	}
}

// Snapshot copies the buffered records in chronological order without
// consuming them.
func (r *Ring) Snapshot() []Record {
	a, b := r.Parts()
	if len(a) == 0 {
		return nil
	}
	out := make([]Record, 0, len(a)+len(b))
	return append(append(out, a...), b...)
}
