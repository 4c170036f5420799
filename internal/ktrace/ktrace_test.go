package ktrace

import (
	"encoding/json"
	"strings"
	"testing"

	"ktau/internal/ktau"
	"ktau/internal/tau"
)

func nameOf(id ktau.EventID) string {
	return map[ktau.EventID]string{1: "sys_writev", 2: "tcp_sendmsg"}[id]
}

func sampleTimeline() []Event {
	user := []tau.Record{
		{TSC: 100, Name: "MPI_Send()", Entry: true},
		{TSC: 900, Name: "MPI_Send()", Entry: false},
		{TSC: 1000, Name: "MPI_Send()", Entry: true},
		{TSC: 1900, Name: "MPI_Send()", Entry: false},
	}
	kern := []ktau.Record{
		{TSC: 200, Ev: 1, Kind: ktau.KindEntry},
		{TSC: 300, Ev: 2, Kind: ktau.KindEntry},
		{TSC: 600, Ev: 2, Kind: ktau.KindExit},
		{TSC: 700, Ev: 1, Kind: ktau.KindExit},
		{TSC: 1200, Ev: 1, Kind: ktau.KindEntry},
		{TSC: 1300, Ev: 1, Kind: ktau.KindExit},
	}
	return Merge(user, kern, nameOf)
}

func TestMergeChronological(t *testing.T) {
	tl := sampleTimeline()
	if len(tl) != 10 {
		t.Fatalf("len = %d", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].TSC < tl[i-1].TSC {
			t.Fatal("timeline not sorted")
		}
	}
	if !tl[1].Kernel || tl[0].Kernel {
		t.Error("kernel tagging wrong")
	}
	if tl[1].Name != "sys_writev" {
		t.Errorf("kernel name = %q", tl[1].Name)
	}
}

func TestWindowSelectsOccurrence(t *testing.T) {
	tl := sampleTimeline()
	w0 := Window(tl, "MPI_Send()", 0)
	if len(w0) != 6 || w0[0].TSC != 100 || w0[len(w0)-1].TSC != 900 {
		t.Errorf("window 0 wrong: %+v", w0)
	}
	w1 := Window(tl, "MPI_Send()", 1)
	if len(w1) != 4 || w1[0].TSC != 1000 {
		t.Errorf("window 1 wrong: %+v", w1)
	}
	if Window(tl, "MPI_Send()", 5) != nil {
		t.Error("missing occurrence must be nil")
	}
	if Window(tl, "nope", 0) != nil {
		t.Error("unknown routine must be nil")
	}
}

func TestWindowHandlesNesting(t *testing.T) {
	user := []tau.Record{
		{TSC: 10, Name: "f", Entry: true},
		{TSC: 20, Name: "f", Entry: true}, // recursive
		{TSC: 30, Name: "f", Entry: false},
		{TSC: 40, Name: "f", Entry: false},
	}
	tl := Merge(user, nil, nameOf)
	w := Window(tl, "f", 0)
	if len(w) != 4 {
		t.Errorf("recursive window should span outermost pair, got %d events", len(w))
	}
}

func TestRenderIndentation(t *testing.T) {
	var sb strings.Builder
	Render(&sb, sampleTimeline(), 450_000_000)
	out := sb.String()
	if !strings.Contains(out, "[K]") {
		t.Error("no kernel tag")
	}
	if !strings.Contains(out, "> MPI_Send()") || !strings.Contains(out, "< MPI_Send()") {
		t.Error("entry/exit markers missing")
	}
	// tcp_sendmsg nests two levels under MPI_Send: two indent units before
	// its entry marker.
	if !strings.Contains(out, "    > tcp_sendmsg") {
		t.Errorf("nesting indentation missing:\n%s", out)
	}
	var empty strings.Builder
	Render(&empty, nil, 450_000_000)
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty timeline not reported")
	}
}

func TestRenderAtomic(t *testing.T) {
	tl := Merge(nil, []ktau.Record{{TSC: 5, Ev: 2, Kind: ktau.KindAtomic, Val: 1448}}, nameOf)
	var sb strings.Builder
	Render(&sb, tl, 450_000_000)
	if !strings.Contains(sb.String(), "* tcp_sendmsg = 1448") {
		t.Errorf("atomic rendering wrong:\n%s", sb.String())
	}
}

func TestNames(t *testing.T) {
	names := Names(sampleTimeline())
	want := []string{"MPI_Send()", "sys_writev", "tcp_sendmsg"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tl := sampleTimeline()
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tl, 450_000_000, 42); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != len(tl) {
		t.Fatalf("events = %d, want %d", len(events), len(tl))
	}
	// Begin/end pairing and track separation.
	var begins, ends int
	for _, e := range events {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		}
		if e["cat"] == "kernel" && e["tid"].(float64) != 2 {
			t.Error("kernel events must be on tid 2")
		}
		if e["pid"].(float64) != 42 {
			t.Error("pid not propagated")
		}
	}
	if begins != ends || begins != 5 {
		t.Errorf("begin/end = %d/%d, want 5/5", begins, ends)
	}
	// Timestamps start at zero and ascend.
	if events[0]["ts"].(float64) != 0 {
		t.Errorf("first ts = %v", events[0]["ts"])
	}
	if err := WriteChromeTrace(&sb, tl, 0, 1); err == nil {
		t.Error("zero clock must error")
	}
}

func TestChromeTraceAtomicInstant(t *testing.T) {
	tl := Merge(nil, []ktau.Record{{TSC: 5, Ev: 2, Kind: ktau.KindAtomic, Val: 1448}}, nameOf)
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tl, 450_000_000, 1); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatal(err)
	}
	if events[0]["ph"] != "i" {
		t.Errorf("atomic phase = %v, want i", events[0]["ph"])
	}
	args := events[0]["args"].(map[string]any)
	if args["value"].(float64) != 1448 {
		t.Errorf("atomic value = %v", args["value"])
	}
}
