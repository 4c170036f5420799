package harness

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func fakeSweep() *SweepResult {
	return &SweepResult{
		Grid: "faketest",
		Cells: []*CellResult{
			{
				Name:         "fake/r8-serial-none-off-s1",
				Params:       Params{Exp: "fake", Ranks: 8, Seed: 1},
				Status:       StatusOK,
				WallMS:       120,
				Metrics:      map[string]float64{"v": 8, "x_slowdown_pct": 3.0},
				Fingerprints: map[string]string{"fp": "cafe"},
			},
			{
				Name:         "fake/r16-serial-none-off-s1",
				Params:       Params{Exp: "fake", Ranks: 16, Seed: 1},
				Status:       StatusOK,
				WallMS:       240,
				Metrics:      map[string]float64{"v": 16, "x_slowdown_pct": 4.5},
				Fingerprints: map[string]string{"fp": "beef"},
			},
		},
	}
}

func TestBaselineAcceptsIdenticalSweep(t *testing.T) {
	res := fakeSweep()
	base := NewBaseline(res)
	if v := DiffBaseline(base, res); len(v) != 0 {
		t.Fatalf("identical sweep rejected: %v", v)
	}
}

func TestBaselineRejectsPerturbations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*SweepResult)
		wantAll []string
	}{
		{
			name:    "metric value",
			mutate:  func(r *SweepResult) { r.Cells[0].Metrics["v"] = 9 },
			wantAll: []string{"fake/r8-serial-none-off-s1", "metric v"},
		},
		{
			name:    "fingerprint",
			mutate:  func(r *SweepResult) { r.Cells[1].Fingerprints["fp"] = "dead" },
			wantAll: []string{"fake/r16-serial-none-off-s1", "fingerprint fp"},
		},
		{
			name:    "status flip",
			mutate:  func(r *SweepResult) { r.Cells[0].Status = StatusTimeout },
			wantAll: []string{"fake/r8-serial-none-off-s1", "status"},
		},
		{
			name:    "missing metric key",
			mutate:  func(r *SweepResult) { delete(r.Cells[0].Metrics, "v") },
			wantAll: []string{"metric v missing"},
		},
		{
			name: "extra metric key",
			mutate: func(r *SweepResult) {
				r.Cells[0].Metrics["surprise"] = 1
			},
			wantAll: []string{"metric surprise not in baseline"},
		},
		{
			name:    "missing cell",
			mutate:  func(r *SweepResult) { r.Cells = r.Cells[:1] },
			wantAll: []string{"missing from sweep"},
		},
		{
			name: "extra cell",
			mutate: func(r *SweepResult) {
				r.Cells = append(r.Cells, &CellResult{
					Name:   "fake/r32-serial-none-off-s1",
					Status: StatusOK,
				})
			},
			wantAll: []string{"missing from baseline"},
		},
		{
			name:    "grid rename",
			mutate:  func(r *SweepResult) { r.Grid = "other" },
			wantAll: []string{"grid mismatch"},
		},
		{
			name:    "wall blowup",
			mutate:  func(r *SweepResult) { r.Cells[0].WallMS = 1e9 },
			wantAll: []string{"wall", "exceeds"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := fakeSweep()
			base := NewBaseline(fakeSweep())
			tc.mutate(res)
			v := DiffBaseline(base, res)
			if len(v) == 0 {
				t.Fatal("perturbation accepted")
			}
			all := strings.Join(v, "\n")
			for _, want := range tc.wantAll {
				if !strings.Contains(all, want) {
					t.Errorf("violations missing %q:\n%s", want, all)
				}
			}
		})
	}
}

// TestBaselineViolationsCarryContext pins the diagnosability contract: a
// gate failure line from a loaded baseline names the offending cell's full
// parameter set and the baseline file, so a CI log is actionable without a
// local re-run.
func TestBaselineViolationsCarryContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faketest.json")
	if err := SaveBaseline(path, NewBaseline(fakeSweep())); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	res := fakeSweep()
	res.Cells[1].Fingerprints["fp"] = "dead"
	v := DiffBaseline(base, res)
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(v), v)
	}
	for _, want := range []string{
		`[params {`, `"exp":"fake"`, `"ranks":16`, "[baseline " + path + "]",
	} {
		if !strings.Contains(v[0], want) {
			t.Errorf("violation missing %q: %q", want, v[0])
		}
	}
	// An in-memory baseline (no Path) still carries params but no file tail.
	v = DiffBaseline(NewBaseline(fakeSweep()), res)
	if len(v) != 1 || strings.Contains(v[0], "[baseline") || !strings.Contains(v[0], "[params") {
		t.Fatalf("in-memory baseline context wrong: %v", v)
	}
}

func TestBaselineSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "faketest.json")
	res := fakeSweep()
	base := NewBaseline(res)
	if err := SaveBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := DiffBaseline(back, res); len(v) != 0 {
		t.Fatalf("round-tripped baseline rejects the sweep it recorded: %v", v)
	}
	if back.WallTolX != base.WallTolX || back.Grid != base.Grid {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, base)
	}
}

func TestLoadBaselineRejectsDuplicateKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.json")
	blob := `{"grid": "g", "grid": "h", "wall_tol_x": 25, "cells": []}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBaseline(path)
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("duplicate key accepted: %v", err)
	}
}

func TestLoadBaselineRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unknown.json")
	blob := `{"grid": "g", "wall_tol_x": 25, "cells": [], "extra": 1}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// committedBaseline loads testdata/sweeps/<grid>.json from the repo root.
func committedBaseline(grid string) (*Baseline, error) {
	return LoadBaseline(filepath.Join("..", "..", "testdata", "sweeps", grid+".json"))
}

// TestNamedGridsHaveBaselines keeps every named grid gateable without
// running a cell: each has a committed baseline that loads and records
// exactly the grid's cells, in grid order, and every budgeted grid exists.
func TestNamedGridsHaveBaselines(t *testing.T) {
	grids := NamedGrids()
	for name, g := range grids {
		base, err := committedBaseline(name)
		if err != nil {
			t.Errorf("grid %s: %v", name, err)
			continue
		}
		if base.Grid != name {
			t.Errorf("%s: baseline records grid %q", base.Path, base.Grid)
		}
		var want, got []string
		for _, p := range g.Cells() {
			want = append(want, p.Name())
		}
		for _, bc := range base.Cells {
			got = append(got, bc.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: cells %v, grid %s expands to %v", base.Path, got, name, want)
		}
	}
	for name := range gridBudgets {
		if _, ok := grids[name]; !ok {
			t.Errorf("gridBudgets names %q, which is not a named grid", name)
		}
	}
}

// TestGridBudgets pushes every budgeted metric of every committed budgeted
// baseline past its limit, and separately removes it. Each case must fail
// the gate with a line naming grid, cell, key, value and limit, and
// SaveBaseline must refuse the same cells and leave the file untouched.
func TestGridBudgets(t *testing.T) {
	for grid, checks := range gridBudgets {
		base, err := committedBaseline(grid)
		if err != nil {
			t.Fatal(err)
		}
		if v := DiffBaseline(base, sweepOf(base)); len(v) != 0 {
			t.Fatalf("%s: committed baseline fails its own gate: %v", grid, v)
		}
		for i := range base.Cells {
			cell := base.Cells[i].Name
			for _, c := range checks {
				past := c.Limit
				switch c.Op {
				case "<=":
					past++
				case ">=":
					past--
				}
				at := fmt.Sprintf("grid %s budget: cell %s: ", grid, cell)
				cases := map[string]struct {
					mutate func(map[string]float64)
					want   string
				}{
					"past limit": {
						func(m map[string]float64) { m[c.Key] = past },
						fmt.Sprintf("%s%s = %g violates %s %g", at, c.Key, past, c.Op, c.Limit),
					},
					"removed": {
						func(m map[string]float64) { delete(m, c.Key) },
						fmt.Sprintf("%skey %q missing or not a number, want %s %g", at, c.Key, c.Op, c.Limit),
					},
				}
				for name, tc := range cases {
					res := sweepOf(base)
					tc.mutate(res.Cells[i].Metrics)
					if all := strings.Join(DiffBaseline(base, res), "\n"); !strings.Contains(all, tc.want) {
						t.Errorf("%s %s: gate violations missing %q:\n%s", c.Key, name, tc.want, all)
					}

					path := filepath.Join(t.TempDir(), grid+".json")
					if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					err := SaveBaseline(path, NewBaseline(res))
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("%s %s: SaveBaseline returned %v, want a refusal containing %q", c.Key, name, err, tc.want)
					}
					if data, _ := os.ReadFile(path); string(data) != "old\n" {
						t.Errorf("%s %s: refused save still wrote %q", c.Key, name, data)
					}
				}
			}
		}
	}
}

// sweepOf rebuilds the sweep a baseline recorded, with maps of its own.
func sweepOf(b *Baseline) *SweepResult {
	res := &SweepResult{Grid: b.Grid}
	for _, bc := range b.Cells {
		res.Cells = append(res.Cells, &CellResult{
			Name:         bc.Name,
			Status:       bc.Status,
			WallMS:       bc.WallMS,
			Metrics:      maps.Clone(bc.Metrics),
			Fingerprints: maps.Clone(bc.Fingerprints),
		})
	}
	return res
}
