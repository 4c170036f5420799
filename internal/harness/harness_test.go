package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The fake spec drives the failure-path tests: its behaviour is selected by
// seed. Seed 2 hangs forever without honoring the context — the worst-case
// spec the watchdog exists for.
func init() {
	Register("fake", func(ctx context.Context, p Params) *CellResult {
		switch p.Seed {
		case 2:
			<-make(chan struct{}) // a hung simulation: never returns
		case 3:
			panic("boom")
		}
		return &CellResult{
			Metrics:      map[string]float64{"v": float64(p.Ranks)},
			Fingerprints: map[string]string{"fp": "cafe"},
			Text:         "fake ok\n",
		}
	})
}

func TestRunCellUnknownSpec(t *testing.T) {
	cell := RunCell(context.Background(), Params{Exp: "no-such-spec", Seed: 1})
	if cell.Status != StatusError {
		t.Fatalf("status = %q, want %q", cell.Status, StatusError)
	}
	if !strings.Contains(cell.Err, "no-such-spec") {
		t.Fatalf("error %q does not name the spec", cell.Err)
	}
}

func TestRunCellRecoversPanic(t *testing.T) {
	cell := RunCell(context.Background(), Params{Exp: "fake", Ranks: 8, Seed: 3})
	if cell.Status != StatusPanic {
		t.Fatalf("status = %q, want %q", cell.Status, StatusPanic)
	}
	if !strings.Contains(cell.Err, "boom") {
		t.Fatalf("error %q does not carry the panic value", cell.Err)
	}
	if cell.Name == "" || cell.Params.Exp != "fake" {
		t.Fatalf("panic cell missing identity: %+v", cell)
	}
}

// TestSweepSurvivesHangAndPanic is the tentpole guarantee: one hung cell and
// one panicking cell must be recorded as timeout/panic cells with complete
// reports while the rest of the sweep still runs to completion.
func TestSweepSurvivesHangAndPanic(t *testing.T) {
	grid := Grid{Name: "faketest", Exp: "fake", Seeds: []uint64{1, 2, 3}}
	var log bytes.Buffer
	start := time.Now()
	res, err := RunSweep(grid, SweepConfig{Timeout: 100 * time.Millisecond, Jobs: 2, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("sweep wedged for %v despite the watchdog", wall)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	wantStatus := []string{StatusOK, StatusTimeout, StatusPanic}
	for i, want := range wantStatus {
		c := res.Cells[i]
		if c == nil {
			t.Fatalf("cell %d missing from results", i)
		}
		if c.Status != want {
			t.Errorf("cell %d (%s): status %q, want %q", i, c.Name, c.Status, want)
		}
		if c.Name == "" || c.WallMS <= 0 {
			t.Errorf("cell %d: incomplete report %+v", i, c)
		}
	}
	if !strings.Contains(res.Cells[1].Err, "timeout") {
		t.Errorf("timeout cell error %q does not explain itself", res.Cells[1].Err)
	}
	if got := len(res.Failed()); got != 2 {
		t.Errorf("Failed() reported %d cells, want 2", got)
	}
	for _, frag := range []string{"s1", "s2", "s3"} {
		if !strings.Contains(log.String(), frag) {
			t.Errorf("progress log missing cell %s:\n%s", frag, log.String())
		}
	}
}

func TestSweepWritesCellFiles(t *testing.T) {
	dir := t.TempDir()
	grid := Grid{Name: "faketest", Exp: "fake", Seeds: []uint64{1, 3}}
	res, err := RunSweep(grid, SweepConfig{Timeout: time.Second, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		name := strings.ReplaceAll(cell.Name, "/", "_") + ".json"
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var back CellResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Name != cell.Name || back.Status != cell.Status {
			t.Errorf("%s: round-trip mismatch: %+v", name, back)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report SweepResult
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Grid != "faketest" || len(report.Cells) != 2 {
		t.Errorf("report round-trip mismatch: %+v", report)
	}
}

func TestSweepEmptyGridErrors(t *testing.T) {
	if _, err := RunSweep(Grid{Name: "empty", Exp: "fake", Ranks: []int{}}, SweepConfig{}); err != nil {
		t.Fatalf("defaulted axes should expand: %v", err)
	}
	// A grid naming no spec still expands (axes default), but its cells all
	// come back as error cells rather than wedging or panicking the sweep.
	res, err := RunSweep(Grid{Name: "nospec"}, SweepConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Status != StatusError {
			t.Errorf("cell %s: status %q, want %q", c.Name, c.Status, StatusError)
		}
	}
}

func TestStableJSONIgnoresWallClock(t *testing.T) {
	a := RunCell(context.Background(), Params{Exp: "fake", Ranks: 8, Seed: 1})
	b := RunCell(context.Background(), Params{Exp: "fake", Ranks: 8, Seed: 1})
	ja, err := a.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("StableJSON differs between identical runs:\n%s\nvs\n%s", ja, jb)
	}
}

func TestGridExpansionOrder(t *testing.T) {
	g := Grid{
		Exp:     "fake",
		Ranks:   []int{8, 16},
		Workers: []int{0, 4},
		Seeds:   []uint64{1},
	}
	cells := g.Cells()
	want := []string{
		"fake/r8-serial-none-off-s1",
		"fake/r8-par4-none-off-s1",
		"fake/r16-serial-none-off-s1",
		"fake/r16-par4-none-off-s1",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, w := range want {
		if got := cells[i].Name(); got != w {
			t.Errorf("cell %d = %q, want %q", i, got, w)
		}
	}
}

func TestParseTraceAxis(t *testing.T) {
	good := map[string]string{
		"off":           "off",
		"full":          "full",
		"adaptive":      "adaptive",
		"adaptive:0.25": "adaptive:0.25",
	}
	for in, want := range good {
		ax, err := ParseTraceAxis(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if ax.String() != want {
			t.Errorf("%q round-trips to %q", in, ax.String())
		}
	}
	for _, in := range []string{"", "verbose", "full:0.5", "adaptive:0", "adaptive:2", "adaptive:NaN"} {
		if _, err := ParseTraceAxis(in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}
