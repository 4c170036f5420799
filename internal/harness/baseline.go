package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Baseline is a committed sweep snapshot (testdata/sweeps/<grid>.json).
// Fingerprints, statuses and metrics are matched exactly (virtual-time
// quantities are deterministic); wall-clock is gated only by a generous
// multiplier because it is the one host-dependent quantity. A grid listed
// in gridBudgets also holds every cell to absolute limits.
type Baseline struct {
	// Path is where the baseline was loaded from; DiffBaseline includes it
	// in every violation so a failing CI log names the file to re-record
	// without a local re-run. Not persisted.
	Path string `json:"-"`
	Grid string `json:"grid"`
	// WallTolX allows a cell's wall time to exceed the recorded one by this
	// factor before failing (0 = don't gate wall-clock at all). The
	// mandatory per-cell timeout still bounds every run.
	WallTolX float64        `json:"wall_tol_x"`
	Cells    []BaselineCell `json:"cells"`
}

// BaselineCell is one cell's committed expectation.
type BaselineCell struct {
	Name         string             `json:"name"`
	Status       string             `json:"status"`
	WallMS       float64            `json:"wall_ms"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	Fingerprints map[string]string  `json:"fingerprints,omitempty"`
}

// gridBudgets holds the absolute limits a grid's cells must meet on top of
// matching their baseline: DiffBaseline applies them to every cell of the
// sweep, and SaveBaseline refuses a baseline that breaks one, so
// re-recording a baseline can never loosen a budget. A gated key missing
// from a cell is a violation.
var gridBudgets = map[string][]BenchCheck{
	// Table 3's question for the trace pipeline: what live collection
	// costs the job it watches, in virtual time.
	"perturb": {
		{Key: "profile_slowdown_pct", Op: "<=", Limit: 5,
			Why: "profile pipeline must stay inside the paper's daemon budget"},
		{Key: "full_trace_slowdown_pct", Op: "<=", Limit: 25,
			Why: "full-trace regression ceiling"},
		{Key: "adaptive_slowdown_pct", Op: "<", Limit: 5,
			Why: "always-on budget: the adaptive configuration is meant to stay on"},
	},
	// The serving run's tail and throughput budgets are relative to the
	// 16-node seed-7 run as first recorded: worst tenant p99 16.253 ms and
	// 4972 completed req/s.
	"serve16": {
		{Key: "t_api_p99_us", Op: "<=", Limit: 20316.25,
			Why: "serving tail may not stretch more than 25% past 16.253 ms"},
		{Key: "t_web_p99_us", Op: "<=", Limit: 20316.25,
			Why: "serving tail may not stretch more than 25% past 16.253 ms"},
		{Key: "req_per_s", Op: ">=", Limit: 3977.6,
			Why: "completed throughput may not drop below 80% of 4972 req/s"},
		{Key: "completed", Op: ">=", Limit: 1,
			Why: "the serving run must drain"},
		{Key: "leaked_conns", Op: "<=", Limit: 0,
			Why: "every connection endpoint must close"},
		{Key: "rogue_fingered", Op: ">=", Limit: 1,
			Why: "tail attribution must finger the planted rogue daemon"},
	},
}

// budgetViolations checks one cell's metrics against its grid's budgets.
func budgetViolations(grid, cell string, metrics map[string]float64) []string {
	return checkAll(fmt.Sprintf("grid %s budget: cell %s", grid, cell), gridBudgets[grid], metrics, nil)
}

// NewBaseline snapshots a sweep result with a wall tolerance of 25x: loose
// enough for any host, loud for a real hang.
func NewBaseline(res *SweepResult) *Baseline {
	b := &Baseline{Grid: res.Grid, WallTolX: 25}
	for _, cell := range res.Cells {
		b.Cells = append(b.Cells, BaselineCell{
			Name:         cell.Name,
			Status:       cell.Status,
			WallMS:       math.Round(cell.WallMS),
			Metrics:      cell.Metrics,
			Fingerprints: cell.Fingerprints,
		})
	}
	return b
}

// SaveBaseline writes the baseline, creating parent directories. It writes
// nothing, and returns every violation, when a cell breaks its grid's
// budgets.
func SaveBaseline(path string, b *Baseline) error {
	var v []string
	for _, bc := range b.Cells {
		v = append(v, budgetViolations(b.Grid, bc.Name, bc.Metrics)...)
	}
	if len(v) > 0 {
		return fmt.Errorf("refusing to write %s:\n%s", path, strings.Join(v, "\n"))
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads a baseline strictly: unknown fields and duplicate keys
// anywhere in the document are errors, not silently-last-wins.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := parseBaseline(data)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	b.Path = path
	return b, nil
}

// parseBaseline is LoadBaseline's bytes-level half.
func parseBaseline(data []byte) (*Baseline, error) {
	// Duplicate keys would be silently merged by Unmarshal; scan first.
	if _, err := FlattenJSON(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// context renders the diagnostic tail every gate violation carries: the
// offending cell's full parameter set (when known) and the baseline path —
// enough to rerun exactly the failing cell and to know which file to
// re-record, without reproducing the whole sweep locally.
func (b *Baseline) context(p *Params) string {
	var sb strings.Builder
	if p != nil {
		if data, err := json.Marshal(p); err == nil {
			fmt.Fprintf(&sb, " [params %s]", data)
		}
	}
	if b.Path != "" {
		fmt.Fprintf(&sb, " [baseline %s]", b.Path)
	}
	return sb.String()
}

// DiffBaseline compares a sweep result against a baseline and returns one
// human-readable violation per mismatch, each naming the cell and the key.
// An empty slice means the gate passes. The comparison is symmetric about
// coverage: cells, metric keys and fingerprint keys missing from either
// side fail loudly rather than being skipped. Every cell is also held to
// the sweep grid's budgets (DiffCell).
func DiffBaseline(base *Baseline, res *SweepResult) []string {
	var v []string
	if base.Grid != res.Grid {
		v = append(v, fmt.Sprintf("grid mismatch: baseline %q vs sweep %q%s",
			base.Grid, res.Grid, base.context(nil)))
	}
	got := map[string]*CellResult{}
	for _, c := range res.Cells {
		if _, dup := got[c.Name]; dup {
			v = append(v, fmt.Sprintf("cell %s: duplicated in sweep results%s",
				c.Name, base.context(&c.Params)))
		}
		got[c.Name] = c
	}
	seen := map[string]bool{}
	for _, bc := range base.Cells {
		if seen[bc.Name] {
			v = append(v, fmt.Sprintf("cell %s: duplicated in baseline%s", bc.Name, base.context(nil)))
		}
		seen[bc.Name] = true
		c, ok := got[bc.Name]
		if !ok {
			v = append(v, fmt.Sprintf("cell %s: in baseline but missing from sweep%s",
				bc.Name, base.context(nil)))
			continue
		}
		// Every per-cell mismatch line carries the cell's full parameters and
		// the baseline path so a failing CI run is diagnosable as-is.
		ctx := base.context(&c.Params)
		if c.Status == bc.Status && base.WallTolX > 0 && bc.WallMS > 0 && c.WallMS > base.WallTolX*bc.WallMS {
			v = append(v, fmt.Sprintf("cell %s: wall %.0fms exceeds %gx baseline %.0fms%s",
				bc.Name, c.WallMS, base.WallTolX, bc.WallMS, ctx))
		}
		for _, m := range DiffCell(res.Grid, &bc, c) {
			v = append(v, m+ctx)
		}
	}
	// Extra cells are as loud as missing ones: a grid change must come with
	// a baseline update.
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v = append(v, fmt.Sprintf("cell %s: in sweep but missing from baseline (run -update-baselines?)%s",
			name, base.context(&got[name].Params)))
	}
	return v
}

// DiffCell is the deterministic part of the per-cell gate: status,
// metrics and fingerprints against the baseline cell, then the cell's
// metrics against the budgets of the sweep's grid. It leaves out wall time,
// the one host-dependent field, so reports can count its lines.
func DiffCell(grid string, bc *BaselineCell, c *CellResult) []string {
	var v []string
	if c.Status != bc.Status {
		v = append(v, fmt.Sprintf("cell %s: status %q != baseline %q (%s)", bc.Name, c.Status, bc.Status, c.Err))
		// A status flip invalidates everything downstream; stop here.
		return v
	}
	v = append(v, diffKeys(bc.Name, "metric", keysF(bc.Metrics), keysF(c.Metrics))...)
	for _, k := range sortedKeysF(bc.Metrics) {
		want := bc.Metrics[k]
		have, ok := c.Metrics[k]
		if !ok {
			continue // already reported by diffKeys
		}
		if have != want {
			v = append(v, fmt.Sprintf("cell %s: metric %s = %g != baseline %g",
				bc.Name, k, have, want))
		}
	}
	v = append(v, diffKeys(bc.Name, "fingerprint", keysS(bc.Fingerprints), keysS(c.Fingerprints))...)
	for _, k := range sortedKeysS(bc.Fingerprints) {
		want := bc.Fingerprints[k]
		have, ok := c.Fingerprints[k]
		if !ok {
			continue
		}
		if have != want {
			v = append(v, fmt.Sprintf("cell %s: fingerprint %s = %.16s... != baseline %.16s...",
				bc.Name, k, have, want))
		}
	}
	return append(v, budgetViolations(grid, bc.Name, c.Metrics)...)
}

// diffKeys reports keys present on one side only.
func diffKeys(cell, kind string, want, have map[string]bool) []string {
	var v []string
	var missing, extra []string
	for k := range want {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	for k := range have {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, k := range missing {
		v = append(v, fmt.Sprintf("cell %s: %s %s missing from sweep result", cell, kind, k))
	}
	for _, k := range extra {
		v = append(v, fmt.Sprintf("cell %s: %s %s not in baseline", cell, kind, k))
	}
	return v
}

func keysF(m map[string]float64) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func keysS(m map[string]string) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func sortedKeysF(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysS(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
