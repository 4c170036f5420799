package ktrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"ktau/internal/ktau"
)

// chromeEvent is the reference ChromeWriter must match byte for byte: the
// struct both Chrome exports marshalled through encoding/json before the
// streaming writer replaced it. ktrace's own copy had no id or bp and
// always set cat, which encodes the same under these tags.
type chromeEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Phase  string         `json:"ph"`
	TS     float64        `json:"ts"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	ID     int            `json:"id,omitempty"`
	BindPt string         `json:"bp,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// refChromeTrace is the reference for WriteChromeTrace: the export as it
// was, building every event and encoding the array in one call.
func refChromeTrace(tl []Event, hz int64, pid int) ([]byte, error) {
	var base int64
	if len(tl) > 0 {
		base = tl[0].TSC
	}
	events := make([]chromeEvent, 0, len(tl))
	for _, e := range tl {
		cat, tid := "user", 1
		if e.Kernel {
			cat, tid = "kernel", 2
		}
		ev := chromeEvent{Name: e.Name, Cat: cat, TS: float64(e.TSC-base) / float64(hz) * 1e6, PID: pid, TID: tid}
		switch e.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			ev.Args = map[string]any{"value": e.Val}
		default:
			continue
		}
		events = append(events, ev)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(events)
	return buf.Bytes(), err
}

// hostileNames need every kind of escaping encoding/json does: quotes,
// backslashes, control characters, HTML-sensitive bytes, invalid UTF-8 and
// the JavaScript line separators.
var hostileNames = []string{
	"sys_writev",
	`do_IRQ["timer"]`,
	`C:\kernel\path`,
	"tab\there\x00nul\x1fus\nnl\r",
	"<script>a&b</script>",
	"bad\xffutf8\xc3",
	"line\u2028sep\u2029para",
	"",
}

func TestWriteChromeTraceMatchesReference(t *testing.T) {
	var tl []Event
	for i, name := range hostileNames {
		tsc := int64(1000 * i)
		tl = append(tl,
			Event{TSC: tsc, Name: name, Kernel: i%2 == 0, Kind: ktau.KindEntry},
			Event{TSC: tsc + 1, Name: name, Kernel: i%2 == 1, Kind: ktau.KindAtomic, Val: -int64(i) * 1e17},
			Event{TSC: tsc + 2, Name: name, Kind: ktau.RecordKind(0)}, // no Chrome event
			Event{TSC: tsc + 500, Name: name, Kernel: i%2 == 0, Kind: ktau.KindExit},
		)
	}
	tl = append(tl,
		Event{TSC: math.MaxInt64, Name: "far", Kind: ktau.KindAtomic, Val: math.MaxInt64},
		Event{TSC: math.MinInt64, Name: "before", Kind: ktau.KindAtomic, Val: math.MinInt64},
	)
	cases := []struct {
		name string
		tl   []Event
		hz   int64
	}{
		{"empty", nil, 450_000_000},
		{"sample", sampleTimeline(), 450_000_000},
		{"hostile", tl, 450_000_000},
		{"sub-microsecond", tl, 2_000_000_000_000},
		{"tiny", tl, math.MaxInt64},
		{"huge", tl, 1},
	}
	for _, tc := range cases {
		want, err := refChromeTrace(tc.tl, tc.hz, -42)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := WriteChromeTrace(&got, tc.tl, tc.hz, -42); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs from encoding/json\n got: %s\nwant: %s", tc.name, got.Bytes(), want)
		}
	}
}

// errWriter accepts n writes, then fails.
type errWriter struct{ n int }

var errSink = errors.New("sink failed")

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errSink
	}
	w.n--
	return len(p), nil
}

func TestChromeWriterReturnsFirstWriteError(t *testing.T) {
	cw := NewChromeWriter(&errWriter{n: 1})
	ev := ChromeEvent{Name: "a fairly long event name to fill chunks quickly", Phase: "B"}
	for i := 0; i < 10_000; i++ {
		cw.Event(&ev)
	}
	if err := cw.Close(); err != errSink {
		t.Fatalf("Close = %v, want the writer's error", err)
	}
}

// FuzzChromeEvent requires the streaming writer to produce exactly the
// bytes encoding/json produces for the reference struct, for any field
// values, and to fail exactly when encoding/json fails (a NaN or infinite
// timestamp).
func FuzzChromeEvent(f *testing.F) {
	for i, name := range hostileNames {
		f.Add(name, "kernel", "B", "", "name", name, "value", 0.0, i, 2*i+1, 0, int64(-i), uint8(i%3))
	}
	for _, ts := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, -5e-300, 1.5, 123456.789,
		9.999999999999999e20, 1e21, -1e21, 1.7e308, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("MPI_msg", "mpi", "s", "e", "src", "dst", "bytes", ts, 3, 6, 7, int64(4096), uint8(2))
	}
	for _, n := range []int{math.MinInt, -1, math.MaxInt} {
		f.Add("thread_name", "", "M", "", "sort_index", "<&>", "value", 0.0, n, n, n, int64(n), uint8(2))
	}
	f.Add("x", "", "i", "", "same", "key", "same", 1.0, 0, 0, 0, int64(math.MinInt64), uint8(2))
	f.Fuzz(func(t *testing.T, name, cat, ph, bp, key1, str1, key2 string, ts float64, pid, tid, id int, int2 int64, nargs uint8) {
		ref := chromeEvent{Name: name, Cat: cat, Phase: ph, TS: ts, PID: pid, TID: tid, ID: id, BindPt: bp}
		switch nargs % 3 {
		case 1:
			ref.Args = map[string]any{key1: str1}
		case 2:
			ref.Args = map[string]any{key1: str1, key2: int2}
		}
		ev := ChromeEvent{Name: name, Cat: cat, Phase: ph, TS: ts, PID: pid, TID: tid, ID: id, BindPt: bp}
		for k, v := range ref.Args { // map order: the writer must sort
			if s, ok := v.(string); ok {
				ev.Args = append(ev.Args, ChromeArg{Key: k, Str: s, IsStr: true})
			} else {
				ev.Args = append(ev.Args, ChromeArg{Key: k, Int: v.(int64)})
			}
		}

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode([]chromeEvent{ref, ref})
		var got bytes.Buffer
		cw := NewChromeWriter(&got)
		cw.Event(&ev)
		cw.Event(&ev)
		gotErr := cw.Close()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("error = %v, encoding/json error = %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("output differs from encoding/json\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
		}
	})
}
