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
type Ring struct {
	buf  []Record
	head int // index of oldest record
	size int // number of live records
	lost uint64
	seq  uint64 // total records ever written
}

// NewRing returns a ring holding up to capacity records. Capacity <= 0
// returns a nil ring, meaning tracing is disabled for the task.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{buf: make([]Record, capacity)}
}

// Put appends a record, overwriting the oldest when full.
func (r *Ring) Put(rec Record) {
	if r == nil {
		return
	}
	r.seq++
	if r.size < len(r.buf) {
		r.buf[(r.head+r.size)%len(r.buf)] = rec
		r.size++
		return
	}
	// Full: overwrite oldest.
	r.buf[r.head] = rec
	r.head = (r.head + 1) % len(r.buf)
	r.lost++
}

// Len reports the number of records currently buffered.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Cap reports the buffer capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Lost reports how many records were overwritten before being read.
func (r *Ring) Lost() uint64 {
	if r == nil {
		return 0
	}
	return r.lost
}

// Total reports how many records were ever written.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Parts returns the buffered records in chronological order as two views
// of the ring's storage: first a, then b (b is empty unless the live region
// wraps past the end of the buffer). Nothing is copied; the views alias the
// ring and are valid until the next Put or Clear.
func (r *Ring) Parts() (a, b []Record) {
	if r == nil || r.size == 0 {
		return nil, nil
	}
	end := r.head + r.size
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}

// Clear empties the ring without copying its records; the lost and total
// counters keep their values. Together with Parts this is what a read
// through /proc/ktau/trace performs.
func (r *Ring) Clear() {
	if r != nil {
		r.head = 0
		r.size = 0
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
