package libktau

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"ktau/internal/kernel"
	"ktau/internal/ktau"
)

// asciiHead is a block's opening: the header and meta lines WriteASCII
// writes for an empty snapshot of pid 1.
const asciiHead = "#KTAU-PROFILE v3\n" +
	`pid 1 name "p" tsc 0 created 0 exited 0 exitedat 0 tracelost 0` + "\n"

// twelveCounters is a block whose counters line names 12 counters, three
// times ktau.MaxCounters, with one event carrying 12 values. It once parsed
// without error, and FormatProfile and WriteASCII then indexed past the
// event's 4-entry counter array.
func twelveCounters() string {
	var names, vals strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&names, " %q", fmt.Sprintf("c%d", i))
		fmt.Fprintf(&vals, " %d", i)
	}
	return asciiHead + "counters 12" + names.String() + "\n" +
		"events 1\n" + `ev 1 "sys_read" 1 1 0 10 10` + vals.String() + "\n" +
		"atomics 0\nmapped 0\n#END\n"
}

// hugeCounterCount claims 50 M counters on a line holding one back-quoted
// name. The parser once re-read that token for every claimed name: 28.9 s
// and 50 M names, and a larger count exhausted memory.
const hugeCounterCount = asciiHead + "counters 50000000 `a`\n" +
	"events 0\natomics 0\nmapped 0\n#END\n"

// quotedCounterName is a snapshot whose counter name holds a double quote,
// which WriteASCII escapes as "a\"b". Its round trip once failed with "bad
// counters line".
func quotedCounterName() ktau.Snapshot {
	s := ktau.Snapshot{PID: 7, Name: "q", CounterNames: []string{`a"b`, "plain"}}
	e := ktau.EventSnap{ID: 1, Name: "sys_read", Group: ktau.GroupSyscall, Calls: 2, Incl: 30, Excl: 30}
	e.Ctr[0], e.Ctr[1] = 11, 12
	s.Events = []ktau.EventSnap{e}
	return s
}

func writeAll(t testing.TB, snaps []ktau.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, s := range snaps {
		if err := WriteASCII(&b, s); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// realASCII is WriteASCII's output for every profile of a populated
// measurement with counters, atomics, mapped data and an exited task.
func realASCII(t testing.TB) ([]ktau.Snapshot, []byte) {
	profiles, _ := realBlobs(t)
	snaps, err := DecodeProfiles(profiles[1]) // PIDAll: every task
	if err != nil {
		t.Fatal(err)
	}
	return snaps, writeAll(t, snaps)
}

func TestParseASCIIBoundsCounters(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"12 names", twelveCounters(), errCounters},
		{"50M claimed, one present", hugeCounterCount, errCounters},
		{"3 claimed, one present", asciiHead + "counters 3 \"a\"\nevents 0\natomics 0\nmapped 0\n#END\n", nil},
		{"trailing text", asciiHead + "counters 1 \"a\" x\nevents 0\natomics 0\nmapped 0\n#END\n", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snaps, err := ParseASCII(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("parsed %d profiles, want an error", len(snaps))
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestParseASCIIQuotedCounterName(t *testing.T) {
	want := quotedCounterName()
	got, err := ParseASCII(bytes.NewReader(writeAll(t, []ktau.Snapshot{want})))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Errorf("round trip differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestParseASCIIReadsEveryBlock: one call returns every profile of a
// stream, as kprof renders them, whether the blocks are concatenated
// WriteASCII outputs or a ktaud dump with its round headers between them.
func TestParseASCIIReadsEveryBlock(t *testing.T) {
	t.Run("three concatenated profiles", func(t *testing.T) {
		snaps, _ := realASCII(t)
		want := []ktau.Snapshot{snaps[0], quotedCounterName(), snaps[len(snaps)-1]}
		got, err := ParseASCII(bytes.NewReader(writeAll(t, want)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parsed %d profiles, want %d:\ngot  %+v\nwant %+v", len(got), len(want), got, want)
		}
	})
	t.Run("ktaud dump of two rounds", func(t *testing.T) {
		eng, k, fs := newDaemonTestKernel(t)
		k.Spawn("blackbox", func(u *kernel.UCtx) {
			for i := 0; i < 8; i++ {
				u.Compute(2 * time.Millisecond)
				u.Syscall("sys_write", nil)
			}
		}, kernel.SpawnOpts{Kind: kernel.KindUser})
		var dump bytes.Buffer
		var want []ktau.Snapshot
		ktaud := k.Spawn("ktaud", Daemon(fs, DaemonConfig{
			Interval:   5 * time.Millisecond,
			Rounds:     2,
			Out:        &dump,
			OnSnapshot: func(_ int, snaps []ktau.Snapshot) { want = append(want, snaps...) },
		}), kernel.SpawnOpts{Kind: kernel.KindDaemon})
		runUntil(eng, time.Second, ktaud.Exited)
		if !strings.HasPrefix(dump.String(), "== ktaud round 0: ") {
			t.Fatalf("dump does not start with a round header:\n%.200s", dump.String())
		}
		got, err := ParseASCII(&dump)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 4 || !reflect.DeepEqual(got, want) {
			t.Errorf("parsed %d profiles, the daemon collected %d", len(got), len(want))
		}
	})
}

// FuzzParseASCII: ParseASCII never panics, nor does rendering what it
// parsed, and every stream it parses re-writes and re-parses to equal
// snapshots. Equality is judged on the %#v rendering so that a NaN atomic
// statistic equals itself.
func FuzzParseASCII(f *testing.F) {
	_, real := realASCII(f)
	for n := 0; n <= len(real); n++ {
		f.Add(real[:n])
	}
	f.Add([]byte(twelveCounters()))
	f.Add([]byte(hugeCounterCount))
	f.Add(writeAll(f, []ktau.Snapshot{quotedCounterName()}))
	f.Fuzz(func(t *testing.T, b []byte) {
		snaps, err := ParseASCII(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, s := range snaps {
			FormatProfile(io.Discard, s, 450_000_000)
		}
		again, err := ParseASCII(bytes.NewReader(writeAll(t, snaps)))
		if err != nil {
			t.Fatalf("re-written profiles do not parse: %v", err)
		}
		if a, b := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", snaps); a != b {
			t.Fatalf("re-parsed profiles differ:\ngot  %s\nwant %s", a, b)
		}
	})
}
