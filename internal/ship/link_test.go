package ship

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestLinkRecycleZeroAllocs pins a link's steady state: a push copies into
// a payload the sink recycled, and peek, pop and recycle allocate nothing.
func TestLinkRecycleZeroAllocs(t *testing.T) {
	l := &link{}
	p := bytes.Repeat([]byte{0xab}, 900)
	cycle := func() {
		l.push(p)
		got, ok := l.peek()
		if !ok || !bytes.Equal(got, p) {
			t.Fatal("peek did not return the pushed payload")
		}
		l.popFront()
		l.recycle(got)
	}
	cycle() // the first push has no payload to refill
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("push/peek/pop/recycle allocated %.2f times, want 0", allocs)
	}
	if !l.empty() {
		t.Fatal("queue not empty after every payload was popped")
	}
}

// payloadFor is the i-th test payload: its index and a name whose length
// varies with it, so recycled payloads are refilled at every length.
func payloadFor(dst []byte, i int) []byte {
	w := Writer{B: dst[:0]}
	w.U32(uint32(i))
	w.Str(strings.Repeat(string(rune('a'+i%26)), i%97))
	return w.B
}

// TestLinkRecycleConcurrent pushes from one goroutine while another peeks,
// pops, decodes and recycles, as an agent and a sink on different runner
// workers do. Every payload must arrive byte for byte, in order, although
// the pusher reuses one scratch buffer and the payloads are recycled.
func TestLinkRecycleConcurrent(t *testing.T) {
	const n = 3000
	l := &link{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var want []byte
		for i := 0; i < n; {
			p, ok := l.peek()
			if !ok {
				runtime.Gosched()
				continue
			}
			want = payloadFor(want, i)
			r := NewReader(p)
			idx, name := r.U32(), r.Str()
			if r.Err() != nil || int(idx) != i || !bytes.Equal(p, want) {
				t.Errorf("payload %d arrived as index %d, name %q (%v)", i, idx, name, r.Err())
				return
			}
			l.popFront()
			l.recycle(p)
			i++
		}
	}()
	var scratch []byte
	for i := 0; i < n; i++ {
		scratch = payloadFor(scratch, i)
		l.push(scratch)
	}
	<-done
	if !l.empty() {
		t.Fatal("queue not empty after every payload was consumed")
	}
}
