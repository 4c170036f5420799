package perfmon

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ktau/internal/ktau"
	"ktau/internal/promfmt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenStore hand-feeds a store with a small fixed scenario: two nodes,
// three kernel events, three rounds, one rank and one daemon per node. The
// exporters' output over it is pinned by the golden files.
func goldenStore() *Store {
	st := NewStore(StoreConfig{Retention: 8})
	for idx, node := range []string{"alpha", "beta"} {
		for round := 0; round < 3; round++ {
			mult := int64(idx + 1)
			f := Frame{
				Node: node, NodeIdx: idx, Round: round, CPUs: 2,
				FromTSC: int64(round) * 1000, ToTSC: int64(round+1) * 1000,
				Last: round == 2,
				Kernel: []ktau.EventDelta{
					{Name: TimerTickEvent, Group: ktau.GroupIRQ, DCalls: 10, DIncl: 20 * mult, DExcl: 20 * mult},
					{Name: "do_softirq", Group: ktau.GroupBH, DCalls: 4, DIncl: 9 * mult, DExcl: 8 * mult},
					{Name: "tcp_v4_rcv", Group: ktau.GroupTCP, DCalls: 6, DIncl: 30 * mult, DExcl: 30 * mult},
				},
				Procs: []ProcDelta{
					{PID: 40 + idx, Name: fmt.Sprintf("app.rank%d", idx), DTotal: 50, DIRQ: 10, DBH: 5, DSched: 35, DTicks: 3},
					{PID: 60 + idx, Name: "crond", DTotal: 12, DIRQ: 4, DSched: 8, DTicks: uint64(idx)},
				},
			}
			st.Ingest(f, 128)
		}
	}
	return st
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	checkGolden(t, "export.prom", buf.Bytes())
}

func TestJSONLinesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore().WriteJSONLines(&buf, 0); err != nil {
		t.Fatalf("WriteJSONLines: %v", err)
	}
	checkGolden(t, "export.jsonl", buf.Bytes())
}

func TestClusterViewGolden(t *testing.T) {
	st := goldenStore()
	rep := st.DetectNoise(DetectConfig{}, "app.rank")
	var buf bytes.Buffer
	st.WriteClusterView(&buf, rep, 3)
	checkGolden(t, "clusterview.txt", buf.Bytes())
}

// jsonSample is the JSON-lines record shape, in field order.
type jsonSample struct {
	Node   string `json:"node"`
	Round  int    `json:"round"`
	Event  string `json:"event"`
	Group  string `json:"group"`
	DCalls uint64 `json:"dcalls"`
	DIncl  int64  `json:"dincl"`
	DExcl  int64  `json:"dexcl"`
}

// encoderJSONLines is the JSON-lines export as encoding/json renders it:
// one encoded jsonSample per retained sample, read through the public
// accessors.
func encoderJSONLines(t *testing.T, st *Store, window int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, node := range st.NodeNames() {
		for _, tot := range st.Totals(node) {
			for _, smp := range st.Series(node, tot.Name, window) {
				if err := enc.Encode(jsonSample{
					Node: node, Round: smp.Round, Event: tot.Name, Group: tot.Group.String(),
					DCalls: smp.DCalls, DIncl: smp.DIncl, DExcl: smp.DExcl,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// hostileStore holds names that need escaping (quotes, backslashes,
// control and HTML characters, line separators, invalid UTF-8), negative
// deltas and more rounds than its rings retain.
func hostileStore(rounds int) *Store {
	st := NewStore(StoreConfig{Retention: 5})
	for idx, node := range []string{`no"de<1>`, "n\\2&\u2028x", "plain"} {
		for round := 0; round < rounds; round++ {
			st.Ingest(Frame{
				Node: node, NodeIdx: idx, Round: round, CPUs: 1,
				FromTSC: int64(round) * 10, ToTSC: int64(round+1) * 10,
				Kernel: []ktau.EventDelta{
					{Name: "ev\t\x01\xff", Group: ktau.GroupIRQ | ktau.GroupBH, DCalls: uint64(round), DIncl: -int64(round), DExcl: 1 << 62},
					{Name: "do_IRQ[timer]", Group: ktau.GroupIRQ, DCalls: 1<<64 - 1, DIncl: int64(idx), DExcl: -1 << 63},
				},
			}, 0)
		}
	}
	return st
}

// TestJSONLinesMatchesEncoder requires the hand-built records to be
// byte-identical to encoding/json's, for every window.
func TestJSONLinesMatchesEncoder(t *testing.T) {
	for _, st := range []*Store{goldenStore(), hostileStore(3), hostileStore(9)} {
		for window := 0; window <= 6; window++ {
			var got bytes.Buffer
			if err := st.WriteJSONLines(&got, window); err != nil {
				t.Fatal(err)
			}
			if want := encoderJSONLines(t, st, window); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("window %d: export differs from encoding/json:\n--- got ---\n%s\n--- want ---\n%s", window, got.Bytes(), want)
			}
		}
	}
}

// TestJSONLinesAllocsIndependentOfRecords requires the export's
// allocations to follow the series, not the samples: a store whose rings
// hold five samples allocates as often as one that holds one.
func TestJSONLinesAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	allocs := func(st *Store) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := st.WriteJSONLines(io.Discard, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, full := allocs(hostileStore(1)), allocs(hostileStore(40))
	if full > one {
		t.Fatalf("export of 5 samples per series made %.0f allocations, of 1 sample %.0f", full, one)
	}
}

func TestJSONLinesWindow(t *testing.T) {
	var all, last bytes.Buffer
	st := goldenStore()
	if err := st.WriteJSONLines(&all, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSONLines(&last, 1); err != nil {
		t.Fatal(err)
	}
	nAll := strings.Count(all.String(), "\n")
	nLast := strings.Count(last.String(), "\n")
	if nAll != 3*nLast {
		t.Fatalf("window slicing broken: %d lines total, %d in last window", nAll, nLast)
	}
}

func TestPrometheusEscapesLabels(t *testing.T) {
	st := NewStore(StoreConfig{})
	st.Ingest(Frame{
		Node: `no"de`, Round: 0, CPUs: 1, ToTSC: 10,
		Kernel: []ktau.EventDelta{{Name: "ev\\il\nname", Group: ktau.GroupIRQ, DCalls: 1, DExcl: 1}},
	}, 0)
	var buf bytes.Buffer
	if err := st.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`no\"de`, `ev\\il\nname`} {
		if !strings.Contains(out, want) {
			t.Fatalf("escaped label %q missing from output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "il\nname") {
		t.Fatal("raw newline leaked into a label")
	}
	// Even with hostile names the document must parse clean.
	if v := promfmt.Lint(buf.Bytes()); len(v) != 0 {
		t.Fatalf("exposition with hostile labels deviates from the format: %v", v)
	}
}

// TestPrometheusExpositionLints runs the strict format validator over the
// golden scenario's exposition: label escaping, HELP/TYPE discipline,
// counter naming, no duplicate series, trailing newline.
func TestPrometheusExpositionLints(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if v := promfmt.Lint(buf.Bytes()); len(v) != 0 {
		t.Fatalf("prometheus exposition deviates from the text format: %v", v)
	}
}
