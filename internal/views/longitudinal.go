package views

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ktau/internal/harness"
)

// TrendCell is one cell's snapshot inside a longitudinal entry: the
// deterministic parts of a CellResult (no wall-clock).
type TrendCell struct {
	Name         string             `json:"name"`
	Status       string             `json:"status"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	Fingerprints map[string]string  `json:"fingerprints,omitempty"`
}

// TrendEntry is one recorded point in a grid's longitudinal history —
// typically one per PR, labelled by the caller (e.g. "PR9"). Alongside the
// sweep cells it snapshots the flattened BENCH_*.json metrics so the
// benchmark trajectory and the behavioural trajectory live in one file.
type TrendEntry struct {
	Label string      `json:"label"`
	Grid  string      `json:"grid"`
	Cells []TrendCell `json:"cells"`
	// Bench maps BENCH file name -> flattened key -> value.
	Bench map[string]map[string]float64 `json:"bench,omitempty"`
}

// NewTrendEntry snapshots a sweep result under a label.
func NewTrendEntry(label string, res *harness.SweepResult) TrendEntry {
	e := TrendEntry{Label: label, Grid: res.Grid}
	for _, c := range res.Cells {
		e.Cells = append(e.Cells, TrendCell{
			Name: c.Name, Status: c.Status,
			Metrics: c.Metrics, Fingerprints: c.Fingerprints,
		})
	}
	return e
}

// CollectBench flattens every BENCH_*.json file present in dir into the
// entry's Bench map. Missing files are skipped (not every environment runs
// every bench before recording); unparseable files are errors.
func (e *TrendEntry) CollectBench(dir string) error {
	for _, name := range harness.BenchFiles() {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		flat, err := harness.FlattenJSON(data)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if e.Bench == nil {
			e.Bench = map[string]map[string]float64{}
		}
		e.Bench[name] = flat
	}
	return nil
}

// TrendPath is the conventional longitudinal file for a grid.
func TrendPath(dir, grid string) string {
	return filepath.Join(dir, grid+".jsonl")
}

// LoadTrend reads a longitudinal file (one JSON entry per line, append
// order preserved). A missing file is an empty history, not an error.
func LoadTrend(path string) ([]TrendEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []TrendEntry
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e TrendEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// AppendTrend records an entry at the end of the grid's history, replacing
// any previous entry with the same label so re-running a sweep within one
// PR is idempotent rather than duplicating points.
func AppendTrend(path string, e TrendEntry) error {
	entries, err := LoadTrend(path)
	if err != nil {
		return err
	}
	kept := entries[:0]
	for _, old := range entries {
		if old.Label != e.Label {
			kept = append(kept, old)
		}
	}
	kept = append(kept, e)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, entry := range kept {
		data, err := json.Marshal(entry)
		if err != nil {
			return err
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// BuildTrend renders a grid's longitudinal history: per-entry cell health
// with fingerprint churn vs the previous entry, the per-cell headline
// metrics across entries, and one table per BENCH file tracking every
// flattened benchmark metric across entries.
func BuildTrend(grid string, entries []TrendEntry) *Report {
	r := &Report{
		Title:    "KTAU longitudinal report: " + grid,
		Subtitle: fmt.Sprintf("%d recorded entries", len(entries)),
	}
	if len(entries) == 0 {
		s := r.AddSection("History")
		s.Paras = append(s.Paras,
			"No entries recorded yet. Run `ktau-sweep -grid "+grid+" -record <label>` to add the first point.")
		return r
	}

	health := r.AddSection("Sweep health across entries")
	ht := &Table{
		Caption: "Cells per entry (fingerprint changes counted against the previous entry)",
		Head:    []string{"entry", "cells", "ok", "failed", "fingerprint changes"},
	}
	var prev *TrendEntry
	for i := range entries {
		e := &entries[i]
		ok := 0
		for _, c := range e.Cells {
			if c.Status == harness.StatusOK {
				ok++
			}
		}
		churn := "-"
		if prev != nil {
			churn = FmtCount(fingerprintChurn(prev, e))
		}
		ht.Rows = append(ht.Rows, []string{
			e.Label, FmtCount(len(e.Cells)), FmtCount(ok),
			FmtCount(len(e.Cells) - ok), churn,
		})
		prev = e
	}
	health.Tables = append(health.Tables, ht)

	cellTrends(r.AddSection("Per-cell metric trends"), entries)
	benchTrends(r.AddSection("Benchmark trends (BENCH_*.json)"), entries)
	return r
}

// fingerprintChurn counts fingerprints that changed, appeared or vanished
// between consecutive entries (cells matched by name).
func fingerprintChurn(prev, cur *TrendEntry) int {
	prevFP := map[string]string{}
	for _, c := range prev.Cells {
		for k, v := range c.Fingerprints {
			prevFP[c.Name+"/"+k] = v
		}
	}
	curFP := map[string]string{}
	for _, c := range cur.Cells {
		for k, v := range c.Fingerprints {
			curFP[c.Name+"/"+k] = v
		}
	}
	churn := 0
	for k, v := range curFP {
		if old, ok := prevFP[k]; !ok || old != v {
			churn++
		}
	}
	for k := range prevFP {
		if _, ok := curFP[k]; !ok {
			churn++
		}
	}
	return churn
}

// headlineMetrics is the per-cell metric set the trend tables track — the
// quantities ROADMAP and the bench gates reason about. Cells lacking a key
// show "-"; everything else lives in the jsonl for ad-hoc tooling.
var headlineMetrics = []string{
	"exec_s", "frames", "trace_records", "trace_sampled_out",
	"req_per_s", "t_api_p99_us", "t_web_p99_us",
	"degraded_slowdown_x", "profile_slowdown_pct", "full_trace_slowdown_pct",
	"adaptive_slowdown_pct",
}

// cellTrends renders one table per cell name: entries down, headline
// metrics across. Only headline keys present in at least one entry appear,
// and the omission of non-headline keys is announced in the caption.
func cellTrends(s *Section, entries []TrendEntry) {
	names := map[string]bool{}
	for _, e := range entries {
		for _, c := range e.Cells {
			names[c.Name] = true
		}
	}
	for _, name := range sortedKeys(names) {
		present := []string{}
		for _, k := range headlineMetrics {
			for i := range entries {
				c := cellByName(&entries[i], name)
				if c == nil {
					continue
				}
				if _, ok := c.Metrics[k]; ok {
					present = append(present, k)
					break
				}
			}
		}
		if len(present) == 0 {
			continue
		}
		t := &Table{
			Caption: fmt.Sprintf("%s (headline metrics only; full history in the jsonl)", name),
			Head:    append([]string{"entry", "status"}, present...),
		}
		for i := range entries {
			c := cellByName(&entries[i], name)
			if c == nil {
				continue
			}
			row := []string{entries[i].Label, c.Status}
			for _, k := range present {
				if v, ok := c.Metrics[k]; ok {
					row = append(row, FmtFloat(v))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
		s.Tables = append(s.Tables, t)
	}
}

func cellByName(e *TrendEntry, name string) *TrendCell {
	for i := range e.Cells {
		if e.Cells[i].Name == name {
			return &e.Cells[i]
		}
	}
	return nil
}

// benchTrends renders one table per BENCH file: entries down, every
// flattened key across (sorted union over all entries).
func benchTrends(s *Section, entries []TrendEntry) {
	files := map[string]bool{}
	for _, e := range entries {
		for f := range e.Bench {
			files[f] = true
		}
	}
	if len(files) == 0 {
		s.Paras = append(s.Paras, "No benchmark snapshots recorded.")
		return
	}
	for _, file := range sortedKeys(files) {
		keys := map[string]bool{}
		for _, e := range entries {
			for k := range e.Bench[file] {
				keys[k] = true
			}
		}
		cols := sortedKeys(keys)
		t := &Table{
			Caption: file,
			Head:    append([]string{"entry"}, cols...),
		}
		for _, e := range entries {
			flat, ok := e.Bench[file]
			if !ok {
				continue
			}
			row := []string{e.Label}
			for _, k := range cols {
				if v, has := flat[k]; has {
					row = append(row, FmtFloat(v))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
		s.Tables = append(s.Tables, t)
	}
}
