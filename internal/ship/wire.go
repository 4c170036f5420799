package ship

import (
	"encoding/binary"
	"errors"
	"math"
)

var (
	// ErrTruncated reports a payload that ends before its fields do (or a
	// malformed varint).
	ErrTruncated = errors.New("truncated frame")
	// ErrCount reports an element count larger than the bytes left to hold
	// the elements: the frame is damaged, and trusting the count would size
	// an allocation from garbage.
	ErrCount = errors.New("element count exceeds frame")
)

// Writer appends little-endian and varint wire primitives to a
// caller-supplied buffer. Strings are length-prefixed (uint16) and
// truncated at 64 KiB.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }

// UV appends an unsigned varint; ZZ a zigzag-encoded signed varint.
func (w *Writer) UV(v uint64) { w.B = binary.AppendUvarint(w.B, v) }
func (w *Writer) ZZ(v int64)  { w.B = binary.AppendVarint(w.B, v) }

func (w *Writer) Bit(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) Str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.B = binary.LittleEndian.AppendUint16(w.B, uint16(len(s)))
	w.B = append(w.B, s...)
}

// Reader decodes what Writer encodes. The first failure sticks: every later
// read returns zero, so a decoder reads straight through and checks Err
// once (adding its own name to the error). No input makes a Reader panic.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads from b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a decoder-level failure (kept only if none came first).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n > len(r.b)-r.off {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// UV reads an unsigned varint; a truncated or overlong encoding is an error.
func (r *Reader) UV() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

// ZZ reads a zigzag-encoded signed varint.
func (r *Reader) ZZ() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Str() string { return r.StrReuse("") }

// StrReuse reads a string like Str, but returns old when the bytes equal it
// (the comparison does not allocate), so a decoder refilling reused storage
// allocates only for the strings that changed.
func (r *Reader) StrReuse(old string) string {
	n := int(r.U16())
	if !r.need(n) {
		return ""
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	if string(b) == old {
		return old
	}
	return string(b)
}

// Count validates a decoded element count before it becomes an int. Every
// element takes at least one byte, so a count larger than the bytes left is
// damage; it is rejected while still unsigned, so a huge value can neither
// wrap negative nor size an allocation.
func (r *Reader) Count(n uint64) int { return r.CountOf(n, 1) }

// CountOf is Count for elements that each take at least width bytes on the
// wire: a count the bytes left cannot hold is damage.
func (r *Reader) CountOf(n uint64, width int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/width) {
		r.err = ErrCount
		return 0
	}
	return int(n)
}
