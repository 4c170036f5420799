package views

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ktau/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureReport exercises every model feature: facts, tables, bars
// (including zero and dominant values), pre blocks, nesting, and values
// that need escaping in both output formats.
func fixtureReport() *Report {
	r := &Report{
		Title:    "Fixture report",
		Subtitle: "covers every renderer feature",
	}
	s := r.AddSection("Summary")
	s.Paras = append(s.Paras, "A paragraph with <html> & markdown|pipes to escape.")
	s.AddFact("plain", "value")
	s.AddFactf("formatted", "%d of %d", 3, 8)
	s.Tables = append(s.Tables, &Table{
		Caption: "A table",
		Head:    []string{"name", "count", "note"},
		Rows: [][]string{
			{"alpha", "1", "pipe | in cell"},
			{"beta", "2", "<b>angle</b>"},
		},
	})
	s.Bars = append(s.Bars, &BarPanel{
		Caption: "A bar panel",
		Bars: []Bar{
			{Label: "big", Value: 100, Text: "100ms"},
			{Label: "small", Value: 1, Text: "1ms"},
			{Label: "zero", Value: 0, Text: "-"},
		},
	})
	s.Pre = append(s.Pre, "raw text\n  with indentation & <chars>\n")
	sub := s.AddSub("Nested")
	sub.AddFact("depth", "3")
	r.AddSection("Empty section")
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%s drifted from golden (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestMarkdownGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, fixtureReport()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.md", buf.Bytes())
}

func TestHTMLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHTML(&buf, fixtureReport()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.html", buf.Bytes())
	out := buf.String()
	if strings.Contains(out, "<b>angle</b>") {
		t.Fatal("table cell HTML was not escaped")
	}
	if !strings.Contains(out, "&lt;b&gt;angle&lt;/b&gt;") {
		t.Fatal("escaped cell content missing")
	}
}

// fakeSweep mirrors the harness baseline tests' fixture so the sweep-report
// golden is independent of any simulation code.
func fakeSweep() *harness.SweepResult {
	return &harness.SweepResult{
		Grid: "faketest",
		Cells: []*harness.CellResult{
			{
				Name:         "fake/r8-serial-none-off-s1",
				Params:       harness.Params{Exp: "fake", Ranks: 8, Seed: 1},
				Status:       harness.StatusOK,
				WallMS:       120, // must never appear in the report
				Metrics:      map[string]float64{"v": 8, "x_slowdown_pct": 3.0},
				Fingerprints: map[string]string{"fp": "cafe0123456789abcdef"},
			},
			{
				Name:         "fake/r16-serial-none-off-s1",
				Params:       harness.Params{Exp: "fake", Ranks: 16, Seed: 1},
				Status:       harness.StatusOK,
				WallMS:       240,
				Metrics:      map[string]float64{"v": 16, "x_slowdown_pct": 4.5},
				Fingerprints: map[string]string{"fp": "beef0123456789abcdef"},
			},
		},
	}
}

func TestSweepReportGolden(t *testing.T) {
	res := fakeSweep()
	base := harness.NewBaseline(fakeSweep())
	base.Path = "testdata/sweeps/faketest.json"
	// Perturb one metric and one fingerprint so the golden pins the
	// mismatch rendering too.
	res.Cells[0].Metrics["v"] = 9
	res.Cells[1].Fingerprints["fp"] = "dead0123456789abcdef"
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, BuildSweep(res, base)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_fixture.md", buf.Bytes())
	out := buf.String()
	for _, want := range []string{
		"| +1 | MISMATCH |", "MISMATCH (baseline", // the injected deviations, rendered inline
		"testdata/sweeps/faketest.json",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep report missing %q", want)
		}
	}
	if strings.Contains(out, "120") && strings.Contains(out, "wall") {
		t.Error("wall-clock content leaked into the report")
	}
}

// TestSweepReportCountsGateLines pins the status verdict to the gate's own
// per-cell diff, budgets included: cells that match their baseline but
// lack the perturb grid's three budgeted slowdowns count three lines each.
func TestSweepReportCountsGateLines(t *testing.T) {
	res := fakeSweep()
	res.Grid = "perturb"
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, BuildSweep(res, harness.NewBaseline(res))); err != nil {
		t.Fatal(err)
	}
	if want := "| fake/r8-serial-none-off-s1 | ok | 1 | 3 MISMATCHES |"; !strings.Contains(buf.String(), want) {
		t.Errorf("status row missing %q:\n%s", want, buf.String())
	}
}

func TestSweepReportWithoutBaseline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, BuildSweep(fakeSweep(), nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "baseline") {
		t.Errorf("baseline columns present without a baseline:\n%s", out)
	}
}

func trendFixture() []TrendEntry {
	return []TrendEntry{
		{
			Label: "PR8", Grid: "faketest",
			Cells: []TrendCell{{
				Name: "fake/r8-serial-none-off-s1", Status: harness.StatusOK,
				Metrics:      map[string]float64{"exec_s": 1.25, "frames": 40},
				Fingerprints: map[string]string{"store": "aaaa"},
			}},
			Bench: map[string]map[string]float64{
				"BENCH_core.json": {"engine.events_per_sec": 1e6},
			},
		},
		{
			Label: "PR9", Grid: "faketest",
			Cells: []TrendCell{{
				Name: "fake/r8-serial-none-off-s1", Status: harness.StatusOK,
				Metrics:      map[string]float64{"exec_s": 1.25, "frames": 42},
				Fingerprints: map[string]string{"store": "bbbb"},
			}},
			Bench: map[string]map[string]float64{
				"BENCH_core.json": {"engine.events_per_sec": 1.1e6, "ktau.ns_per_event": 42},
			},
		},
	}
}

func TestTrendReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, BuildTrend("faketest", trendFixture())); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trend_fixture.md", buf.Bytes())
	out := buf.String()
	// PR9 changed the store fingerprint: churn 1 against PR8.
	if !strings.Contains(out, "| PR9 | 1 | 1 | 0 | 1 |") {
		t.Errorf("fingerprint churn row missing:\n%s", out)
	}
}

func TestTrendRoundTripAndIdempotentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long", "faketest.jsonl")
	for _, e := range trendFixture() {
		if err := AppendTrend(path, e); err != nil {
			t.Fatal(err)
		}
	}
	// Re-recording PR9 must replace, not duplicate.
	again := trendFixture()[1]
	again.Cells[0].Metrics["frames"] = 43
	if err := AppendTrend(path, again); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d entries, want 2 (idempotent replace): %+v", len(back), back)
	}
	if back[1].Label != "PR9" || back[1].Cells[0].Metrics["frames"] != 43 {
		t.Fatalf("replaced entry wrong: %+v", back[1])
	}
	if back[0].Label != "PR8" {
		t.Fatalf("entry order not preserved: %+v", back)
	}
}

func TestLoadTrendMissingFileIsEmpty(t *testing.T) {
	entries, err := LoadTrend(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || entries != nil {
		t.Fatalf("missing file: entries=%v err=%v", entries, err)
	}
}

func TestWriteFilePicksFormatByExtension(t *testing.T) {
	dir := t.TempDir()
	r := fixtureReport()
	md := filepath.Join(dir, "r.md")
	htm := filepath.Join(dir, "sub", "r.html")
	if err := WriteFile(md, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(htm, r); err != nil {
		t.Fatal(err)
	}
	mdData, _ := os.ReadFile(md)
	htmData, _ := os.ReadFile(htm)
	if !bytes.HasPrefix(mdData, []byte("# Fixture report")) {
		t.Errorf("markdown output wrong prefix: %.40s", mdData)
	}
	if !bytes.HasPrefix(htmData, []byte("<!DOCTYPE html>")) {
		t.Errorf("html output wrong prefix: %.40s", htmData)
	}
}

func TestBuildCellFallsBackToText(t *testing.T) {
	c := &harness.CellResult{
		Name: "x/r1", Status: harness.StatusOK,
		Metrics: map[string]float64{"m": 1},
		Text:    "captured render\n",
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, BuildCell(c)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "captured render") {
		t.Errorf("text fallback missing:\n%s", out)
	}
}
