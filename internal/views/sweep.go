package views

import (
	"fmt"

	"ktau/internal/harness"
)

// BuildSweep renders a sweep as a report: a cell-status summary, then one
// section per cell with its metrics and fingerprints — and, when a baseline
// is supplied, the baseline value, delta and verdict inline on every row,
// so a gate failure is readable without re-running the sweep. Wall-clock
// fields never appear: the report is a deterministic function of the grid,
// the seeds and the committed baseline.
func BuildSweep(res *harness.SweepResult, base *harness.Baseline) *Report {
	r := &Report{
		Title:    "KTAU sweep report: " + res.Grid,
		Subtitle: fmt.Sprintf("%d cells", len(res.Cells)),
	}
	baseCells := map[string]*harness.BaselineCell{}
	if base != nil {
		r.Subtitle += ", gated against " + basePath(base)
		for i := range base.Cells {
			baseCells[base.Cells[i].Name] = &base.Cells[i]
		}
	}

	sum := r.AddSection("Cells")
	st := &Table{
		Caption: "Cell status",
		Head:    []string{"cell", "status", "fingerprints"},
	}
	if base != nil {
		st.Head = append(st.Head, "baseline")
	}
	for _, c := range res.Cells {
		row := []string{c.Name, c.Status, FmtCount(len(c.Fingerprints))}
		if base != nil {
			verdict := "NOT IN BASELINE"
			if bc := baseCells[c.Name]; bc != nil {
				verdict = "match"
				if n := len(harness.DiffCell(res.Grid, bc, c)); n > 0 {
					verdict = fmt.Sprintf("%d MISMATCHES", n)
				}
			}
			row = append(row, verdict)
		}
		st.Rows = append(st.Rows, row)
	}
	sum.Tables = append(sum.Tables, st)
	if base != nil {
		// Baseline cells the sweep no longer produces are as loud here as in
		// the gate.
		for _, bc := range base.Cells {
			found := false
			for _, c := range res.Cells {
				if c.Name == bc.Name {
					found = true
					break
				}
			}
			if !found {
				sum.AddFact("MISSING CELL", bc.Name+" is in the baseline but the sweep did not produce it")
			}
		}
	}

	for _, c := range res.Cells {
		sec := r.AddSection("Cell " + c.Name)
		sec.AddFact("status", c.Status)
		if c.Err != "" {
			sec.AddFact("error", c.Err)
		}
		var wantM map[string]float64
		var wantF map[string]string
		if base != nil {
			if bc := baseCells[c.Name]; bc != nil {
				wantM, wantF = bc.Metrics, bc.Fingerprints
			} else {
				wantM, wantF = map[string]float64{}, map[string]string{}
			}
		}
		caption := "Metrics"
		if base != nil {
			caption = "Metrics vs baseline"
		}
		if t := metricsTable(caption, c.Metrics, wantM); t != nil {
			sec.Tables = append(sec.Tables, t)
		}
		if t := fingerprintTable(c.Fingerprints, wantF); t != nil {
			sec.Tables = append(sec.Tables, t)
		}
	}
	return r
}

// basePath names the baseline in the subtitle (falls back to the grid name
// for in-memory baselines).
func basePath(b *harness.Baseline) string {
	if b.Path != "" {
		return b.Path
	}
	return "baseline for grid " + b.Grid
}
