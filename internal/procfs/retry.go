package procfs

import (
	"errors"
	"fmt"
)

// DefaultReadAttempts is the bounded retry count clients use for the
// session-less two-call protocol.
const DefaultReadAttempts = 8

// ErrRetryExhausted reports that the target's size kept changing for every
// one of the bounded attempts.
type ErrRetryExhausted struct{ Attempts int }

func (e ErrRetryExhausted) Error() string {
	return fmt.Sprintf("procfs: size kept changing across %d read attempts", e.Attempts)
}

// ReadRetry performs the session-less read convention of /proc/ktau: query
// the current size, read into a buffer of exactly that size — and when the
// data grew between the two calls (ErrShortBuffer), retry with the size the
// failed read reported, up to attempts times (<= 0 selects
// DefaultReadAttempts). It returns the bytes actually read.
//
// Every attempt reads into scratch, grown when it is too small, so a caller
// that passes the previous result back in reads without allocating once its
// buffer has reached the working size. The result aliases that buffer and
// is valid until the caller's next ReadRetry with it.
//
// The dance exists because the interface keeps no state between calls by
// design (§4.3): a process can be created, or its profile grow, between Size
// and Read, so every client must be prepared to loop.
func ReadRetry(scratch []byte, size func() (int, error), read func(buf []byte) (int, error), attempts int) ([]byte, error) {
	if attempts <= 0 {
		attempts = DefaultReadAttempts
	}
	n, err := size()
	if err != nil {
		return nil, err
	}
	for i := 0; i < attempts; i++ {
		if cap(scratch) < n {
			scratch = make([]byte, n)
		}
		buf := scratch[:n]
		got, err := read(buf)
		if err == nil {
			return buf[:got], nil
		}
		var short ErrShortBuffer
		if errors.As(err, &short) {
			n = short.Needed
			continue
		}
		return nil, err
	}
	return nil, ErrRetryExhausted{Attempts: attempts}
}
