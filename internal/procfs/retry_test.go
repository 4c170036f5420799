package procfs

import (
	"errors"
	"testing"

	"ktau/internal/ktau"
)

// retryEnv is a minimal ktau.Env for driving a measurement directly.
type retryEnv struct{ cycles int64 }

func (e *retryEnv) Cycles() int64       { return e.cycles }
func (e *retryEnv) AddOverhead(c int64) {}

// TestReadRetryProfileGrowsBetweenCalls reproduces the session-less race the
// interface is designed around: a new process appears (and an existing
// profile grows) between the ProfileSize and ProfileRead calls, so the first
// read fails with ErrShortBuffer and the retry must succeed with the larger
// size.
func TestReadRetryProfileGrowsBetweenCalls(t *testing.T) {
	env := &retryEnv{}
	m := ktau.NewMeasurement(env, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll})
	fs := New(m)

	ev := m.Event("sys_read", ktau.GroupSyscall)
	td := m.CreateTask(10, "p0")
	m.Entry(td, ev)
	env.cycles += 100
	m.Exit(td, ev)

	grown := false
	grow := func() {
		if grown {
			return
		}
		grown = true
		// A second process appears and records activity after Size was
		// answered: the ScopeAll blob is now bigger than reported.
		td2 := m.CreateTask(11, "p1")
		m.Entry(td2, ev)
		env.cycles += 250
		m.Exit(td2, ev)
	}

	var sizes, reads int
	blob, err := ReadRetry(nil,
		func() (int, error) {
			sizes++
			return fs.ProfileSize(PIDAll)
		},
		func(buf []byte) (int, error) {
			grow() // mutate between the two calls, before the read sees buf
			reads++
			return fs.ProfileRead(PIDAll, buf)
		},
		DefaultReadAttempts)
	if err != nil {
		t.Fatalf("ReadRetry failed: %v", err)
	}
	if sizes != 1 {
		t.Errorf("size queried %d times, want exactly 1 (retries reuse ErrShortBuffer.Needed)", sizes)
	}
	if reads != 2 {
		t.Errorf("read attempted %d times, want 2 (short, then success)", reads)
	}
	// The retried read must carry both processes.
	want, err := fs.ProfileSize(PIDAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != want {
		t.Errorf("blob is %d bytes, want %d", len(blob), want)
	}
}

// TestReadRetryExhausted: a target whose size grows on every attempt must
// fail with ErrRetryExhausted rather than loop forever.
func TestReadRetryExhausted(t *testing.T) {
	n := 16
	_, err := ReadRetry(nil,
		func() (int, error) { return n, nil },
		func(buf []byte) (int, error) {
			n += 8 // always bigger than the caller's buffer
			return 0, ErrShortBuffer{Needed: n}
		},
		3)
	var exhausted ErrRetryExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
	if exhausted.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", exhausted.Attempts)
	}
}

// TestReadRetryPropagatesHardErrors: non-ErrShortBuffer errors pass through.
func TestReadRetryPropagatesHardErrors(t *testing.T) {
	env := &retryEnv{}
	m := ktau.NewMeasurement(env, ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll})
	fs := New(m)
	_, err := ReadRetry(nil,
		func() (int, error) { return fs.ProfileSize(12345) },
		func(buf []byte) (int, error) { return fs.ProfileRead(12345, buf) },
		0)
	if !errors.Is(err, ErrNoSuchPID) {
		t.Fatalf("err = %v, want ErrNoSuchPID", err)
	}
}

// TestReadRetryReadsIntoScratch: every attempt reads into a buffer exactly
// as long as the size it was told — so the protocol's ErrShortBuffer
// retries happen as before — backed by the caller's scratch while it is big
// enough, and a read through a big-enough scratch allocates nothing.
func TestReadRetryReadsIntoScratch(t *testing.T) {
	scratch := make([]byte, 0, 64)
	var lens []int
	needed := []int{40, 100} // the first read finds the data grown to 40, the second to 100
	blob, err := ReadRetry(scratch,
		func() (int, error) { return 16, nil },
		func(buf []byte) (int, error) {
			lens = append(lens, len(buf))
			if len(buf) <= cap(scratch) && &buf[0] != &scratch[:1][0] {
				t.Errorf("a %d-byte read did not land in the %d-byte scratch", len(buf), cap(scratch))
			}
			if len(lens) <= len(needed) {
				return 0, ErrShortBuffer{Needed: needed[len(lens)-1]}
			}
			return len(buf) - 1, nil
		},
		0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{16, 40, 100}; len(lens) != len(want) || lens[0] != 16 || lens[1] != 40 || lens[2] != 100 {
		t.Fatalf("read buffer lengths = %v, want %v", lens, want)
	}
	if len(blob) != 99 || cap(blob) < 100 {
		t.Fatalf("result is %d bytes (cap %d), want 99 of a grown buffer", len(blob), cap(blob))
	}

	size := func() (int, error) { return 48, nil }
	read := func(buf []byte) (int, error) { return len(buf), nil }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadRetry(scratch, size, read, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadRetry through a big-enough scratch allocated %.1f times, want 0", allocs)
	}
}
