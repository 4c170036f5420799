package ship

import (
	"encoding/binary"
	"errors"
	"testing"
)

func encodeAll() []byte {
	var w Writer
	w.U8(7)
	w.U32(1 << 31)
	w.U64(1 << 63)
	w.I64(-5)
	w.UV(300)
	w.ZZ(-300)
	w.Bit(true)
	w.Str("kmond")
	return w.B
}

// readAll decodes encodeAll's layout and reports whether every value came
// back intact.
func readAll(r *Reader) bool {
	return r.U8() == 7 && r.U32() == 1<<31 && r.U64() == 1<<63 && r.I64() == -5 &&
		r.UV() == 300 && r.ZZ() == -300 && r.U8() == 1 && r.Str() == "kmond"
}

func TestWriterReaderRoundTrip(t *testing.T) {
	b := encodeAll()
	r := NewReader(b)
	if !readAll(&r) || r.Err() != nil {
		t.Fatalf("round trip failed: err=%v", r.Err())
	}
	// Every truncation is an error, never a panic.
	for n := 0; n < len(b); n++ {
		r := NewReader(b[:n])
		if readAll(&r) || r.Err() == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", n, len(b))
		}
	}
}

func TestCountRejectsMoreThanRemaining(t *testing.T) {
	count := func(n uint64, rest int) (int, error) {
		b := binary.AppendUvarint(nil, n)
		r := NewReader(append(b, make([]byte, rest)...))
		got := r.Count(r.UV())
		return got, r.Err()
	}
	if n, err := count(3, 3); n != 3 || err != nil {
		t.Fatalf("count 3 over 3 bytes = %d, %v", n, err)
	}
	if n, err := count(4, 3); n != 0 || !errors.Is(err, ErrCount) {
		t.Fatalf("count 4 over 3 bytes = %d, %v; want 0, ErrCount", n, err)
	}
	// 1<<63 would wrap negative as an int; it must be rejected unsigned.
	if n, err := count(1<<63, 0); n != 0 || !errors.Is(err, ErrCount) {
		t.Fatalf("count 1<<63 = %d, %v; want 0, ErrCount", n, err)
	}
}

func TestReaderFailureSticks(t *testing.T) {
	r := NewReader(encodeAll())
	r.Fail(ErrCount)
	r.Fail(ErrTruncated)
	if r.U8() != 0 || r.Str() != "" || !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("reads after a failure must return zero and keep the first error, got %v", r.Err())
	}
}
