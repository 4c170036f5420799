package ktrace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"ktau/internal/ktau"
)

// Chrome trace-event export: the modern equivalent of handing the merged
// user/kernel trace to Vampir or Jumpshot (paper §2, Fig 2-E). The output
// loads directly in chrome://tracing or Perfetto: user events on one track,
// kernel events on another, nested by duration.

// ChromeEvent is one entry of the Chrome trace-event JSON array format.
type ChromeEvent struct {
	Name   string
	Cat    string // omitted when empty
	Phase  string
	TS     float64 // microseconds
	PID    int
	TID    int
	ID     int         // flow id; omitted when 0
	BindPt string      // flow binding point; omitted when empty
	Args   []ChromeArg // omitted when empty; keys must be distinct
}

// ChromeArg is one member of an event's args object: a string value when
// IsStr is set, the integer Int otherwise.
type ChromeArg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// chromeChunk is the buffered size at which a ChromeWriter hands its bytes
// to the underlying writer: large enough to amortise the write calls, small
// enough that a million-event trace is never held in memory whole.
const chromeChunk = 64 << 10

// ChromeWriter streams a Chrome trace-event JSON array. The bytes are
// exactly what json.Encoder writes for the same events as a slice of
// structs: fields in ChromeEvent order under the keys name, cat, ph, ts,
// pid, tid, id, bp and args, the fields documented as omitted when empty
// tagged omitempty, Args as a map[string]any (so keys come out sorted), and
// a trailing newline. A string made only of bytes encoding/json writes as
// themselves is copied between quotes; every other distinct string is quoted
// once, by encoding/json itself, so escaping matches by construction. A
// timestamp with the same bits as the previous one reuses its text.
type ChromeWriter struct {
	w      io.Writer
	buf    []byte
	events int
	err    error
	quoted map[string][]byte // JSON literal of every escaped string seen so far
	args   []ChromeArg       // scratch for sorting an event's args
	tsBits uint64            // bits of the last timestamp written
	ts     []byte            // its JSON text
}

// NewChromeWriter opens a trace-event array on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	// One event never exceeds a quarter chunk unless its strings are long,
	// so a flushed buffer almost never has to grow.
	buf := make([]byte, 0, chromeChunk+chromeChunk/4)
	return &ChromeWriter{
		w: w, buf: append(buf, '['), quoted: make(map[string][]byte),
		tsBits: math.Float64bits(math.NaN()), // Event writes no NaN
	}
}

// Event appends one event. After a write error, or a timestamp JSON cannot
// represent (NaN or an infinity), it does nothing; Close reports the error.
func (cw *ChromeWriter) Event(ev *ChromeEvent) {
	if cw.err != nil {
		return
	}
	if math.IsNaN(ev.TS) || math.IsInf(ev.TS, 0) {
		cw.err = fmt.Errorf("ktrace: unsupported chrome timestamp %v", ev.TS)
		return
	}
	b := cw.buf
	if cw.events > 0 {
		b = append(b, ',')
	}
	cw.events++
	b = append(b, `{"name":`...)
	b = cw.appendString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = cw.appendString(b, ev.Cat)
	}
	b = append(b, `,"ph":`...)
	b = cw.appendString(b, ev.Phase)
	b = append(b, `,"ts":`...)
	if bits := math.Float64bits(ev.TS); bits == cw.tsBits {
		b = append(b, cw.ts...)
	} else {
		n := len(b)
		b = appendFloat(b, ev.TS)
		cw.tsBits, cw.ts = bits, append(cw.ts[:0], b[n:]...)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.TID), 10)
	if ev.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(ev.ID), 10)
	}
	if ev.BindPt != "" {
		b = append(b, `,"bp":`...)
		b = cw.appendString(b, ev.BindPt)
	}
	if len(ev.Args) > 0 {
		cw.args = append(cw.args[:0], ev.Args...)
		slices.SortFunc(cw.args, func(x, y ChromeArg) int { return strings.Compare(x.Key, y.Key) })
		b = append(b, `,"args":{`...)
		for i, a := range cw.args {
			if i > 0 {
				b = append(b, ',')
			}
			b = cw.appendString(b, a.Key)
			b = append(b, ':')
			if a.IsStr {
				b = cw.appendString(b, a.Str)
			} else {
				b = strconv.AppendInt(b, a.Int, 10)
			}
		}
		b = append(b, '}')
	}
	cw.buf = append(b, '}')
	if len(cw.buf) >= chromeChunk {
		cw.flush()
	}
}

// Close ends the array, writes out what is buffered and returns the first
// error met.
func (cw *ChromeWriter) Close() error {
	cw.buf = append(cw.buf, ']', '\n')
	cw.flush()
	return cw.err
}

func (cw *ChromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// jsonPlain marks the bytes encoding/json writes inside a string as
// themselves: 0x20 to 0x7f, less the quote and backslash it escapes, and the
// <, > and & it escapes for HTML.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c <= 0x7f; c++ {
		plain[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		plain[c] = false
	}
	return plain
}()

func (cw *ChromeWriter) appendString(b []byte, s string) []byte {
	i := 0
	for i < len(s) && jsonPlain[s[i]] {
		i++
	}
	if i == len(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, ok := cw.quoted[s]
	if !ok {
		// The cache keeps its own copy, so the caller's strings never
		// escape and its args arrays can stay on the stack.
		own := strings.Clone(s)
		q, _ = json.Marshal(own) // marshalling a string cannot fail
		cw.quoted[own] = q
	}
	return append(b, q...)
}

// appendFloat formats a finite float64 as encoding/json does: like ES6
// number-to-string, 'f' notation for 1e-6 <= |f| < 1e21 and 'e' otherwise,
// with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// WriteChromeTrace renders a merged timeline as a Chrome trace-event JSON
// array. Timestamps are converted from cycles at the given clock; pid labels
// the simulated process.
func WriteChromeTrace(w io.Writer, tl []Event, hz int64, pid int) error {
	if hz <= 0 {
		return fmt.Errorf("ktrace: non-positive clock %d", hz)
	}
	var base int64
	if len(tl) > 0 {
		base = tl[0].TSC
	}
	toUS := func(c int64) float64 { return float64(c-base) / float64(hz) * 1e6 }

	cw := NewChromeWriter(w)
	var val [1]ChromeArg
	for _, e := range tl {
		ev := ChromeEvent{Name: e.Name, Cat: "user", TS: toUS(e.TSC), PID: pid, TID: 1}
		if e.Kernel {
			ev.Cat, ev.TID = "kernel", 2
		}
		switch e.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			val[0] = ChromeArg{Key: "value", Int: e.Val}
			ev.Args = val[:]
		default:
			continue
		}
		cw.Event(&ev)
	}
	return cw.Close()
}
