package harness

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// addCommittedSeeds seeds a fuzz target with every committed sweep baseline
// and the committed BENCH files: the documents the readers exist for.
func addCommittedSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "sweeps", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	paths = append(paths,
		filepath.Join("..", "..", "BENCH_core.json"),
		filepath.Join("..", "..", "BENCH_parallel.json"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzFlattenJSON feeds arbitrary bytes to FlattenJSON and to
// ParseParallelBench, which builds on it. Neither may panic, and a payload
// the parallel reader accepts must marshal and parse again to an equal
// value.
func FuzzFlattenJSON(f *testing.F) {
	addCommittedSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		FlattenJSON(data) // only a panic fails here
		pb, err := ParseParallelBench(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(pb)
		if err != nil {
			t.Fatalf("accepted payload does not marshal: %v", err)
		}
		back, err := ParseParallelBench(out)
		if err != nil {
			t.Fatalf("re-marshalled payload rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(pb, back) {
			t.Fatalf("round trip changed the payload:\n%+v\n%+v", pb, back)
		}
	})
}

// FuzzLoadBaseline feeds arbitrary bytes to LoadBaseline's bytes-level
// half. It may not panic, and any baseline that loads must marshal and load
// again to an equal value.
func FuzzLoadBaseline(f *testing.F) {
	addCommittedSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := parseBaseline(data)
		if err != nil {
			return
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatalf("loaded baseline does not marshal: %v", err)
		}
		back, err := parseBaseline(out)
		if err != nil {
			t.Fatalf("marshalled baseline does not load: %v\n%s", err, out)
		}
		if !equalBaselines(b, back) {
			t.Fatalf("round trip changed the baseline:\n%+v\n%+v", b, back)
		}
	})
}

// equalBaselines compares two baselines field by field. An empty metric or
// fingerprint map equals a missing one: omitempty drops it on marshal.
func equalBaselines(a, b *Baseline) bool {
	if a.Grid != b.Grid || a.WallTolX != b.WallTolX || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i, ca := range a.Cells {
		cb := b.Cells[i]
		if ca.Name != cb.Name || ca.Status != cb.Status || ca.WallMS != cb.WallMS ||
			!maps.Equal(ca.Metrics, cb.Metrics) || !maps.Equal(ca.Fingerprints, cb.Fingerprints) {
			return false
		}
	}
	return true
}
