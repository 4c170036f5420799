package views

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadTrend feeds arbitrary bytes to LoadTrend as a history file,
// seeded with the committed histories. Whatever it accepts must survive
// AppendTrend, entry by entry, and load back to equal entries; AppendTrend
// replaces an earlier entry of the same label, so the history expected
// back keeps only the last entry of each label, in order of appending.
func FuzzLoadTrend(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "longitudinal", "*.jsonl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed histories: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := LoadTrend(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.jsonl")
		var want []TrendEntry
		for _, e := range entries {
			if err := AppendTrend(out, e); err != nil {
				t.Fatalf("AppendTrend of a loaded entry: %v", err)
			}
			kept := want[:0]
			for _, w := range want {
				if w.Label != e.Label {
					kept = append(kept, w)
				}
			}
			want = append(kept, e)
		}
		back, err := LoadTrend(out)
		if err != nil {
			t.Fatalf("appended history does not load: %v", err)
		}
		if len(back) != len(want) {
			t.Fatalf("loaded %d entries back, want %d", len(back), len(want))
		}
		for i := range want {
			if !equalTrendEntries(want[i], back[i]) {
				t.Fatalf("entry %d changed on the round trip:\n%+v\n%+v", i, want[i], back[i])
			}
		}
	})
}

// equalTrendEntries compares two entries field by field. An empty map equals
// a missing one: omitempty drops it on marshal.
func equalTrendEntries(a, b TrendEntry) bool {
	if a.Label != b.Label || a.Grid != b.Grid || len(a.Cells) != len(b.Cells) ||
		!maps.EqualFunc(a.Bench, b.Bench, maps.Equal) {
		return false
	}
	for i, ca := range a.Cells {
		cb := b.Cells[i]
		if ca.Name != cb.Name || ca.Status != cb.Status ||
			!maps.Equal(ca.Metrics, cb.Metrics) || !maps.Equal(ca.Fingerprints, cb.Fingerprints) {
			return false
		}
	}
	return true
}
