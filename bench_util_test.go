package ktau_test

import (
	"encoding/json"
	"os"
	"testing"

	"ktau/internal/harness"
)

// writeBench validates and writes one BENCH_*.json payload. Validation uses
// the same strict parser the ktau-sweep bench gate later reads the file
// with — duplicate keys anywhere, and every key the gate thresholds, are
// checked here — so a renamed or doubled metric fails the benchmark that
// writes the file instead of a later check.sh run.
func writeBench(b *testing.B, path string, payload any) {
	b.Helper()
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	data = append(data, '\n')
	if err := harness.CheckBenchPayload(path, data); err != nil {
		b.Fatalf("refusing to write %s: %v", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// parallelBenchDoc builds a BENCH_parallel.json payload in the same shape
// BenchmarkParallelChiba emits, with hooks to corrupt it per test case.
func parallelBenchDoc(mutate func(doc map[string]any, rows []map[string]any)) []byte {
	rows := []map[string]any{
		{"workers": 1, "gomaxprocs": 1, "wall_s": 8.0, "speedup": 1.0, "identical_results": true},
		{"workers": 2, "gomaxprocs": 2, "wall_s": 4.4, "speedup": 1.81, "identical_results": true},
		{"workers": 4, "gomaxprocs": 4, "wall_s": 2.5, "speedup": 3.2, "identical_results": true},
		{"workers": 8, "gomaxprocs": 8, "wall_s": 1.7, "speedup": 4.7, "identical_results": true},
	}
	doc := map[string]any{
		"benchmark":      "128-node 8-rack Chiba LU, partitioned-runner worker sweep vs serial",
		"ranks":          128,
		"nodes":          128,
		"racks":          8,
		"host_cpus":      8,
		"serial_wall_s":  8.0,
		"virtual_exec_s": 3.6,
	}
	if mutate != nil {
		mutate(doc, rows)
	}
	if _, drop := doc["_drop_rows"]; drop {
		delete(doc, "_drop_rows")
	} else {
		doc["rows"] = rows
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return blob
}

// TestParallelBenchSchema pins the write-time contract of
// BENCH_parallel.json: the exact payload shape the benchmark emits is
// accepted, and every corruption a refactor could plausibly introduce —
// unknown or renamed fields, missing rows, a row whose results diverged
// from serial — is rejected before the file is written.
func TestParallelBenchSchema(t *testing.T) {
	if err := harness.CheckBenchPayload("BENCH_parallel.json", parallelBenchDoc(nil)); err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}

	reject := map[string]func(doc map[string]any, rows []map[string]any){
		"unknown top-level field": func(doc map[string]any, _ []map[string]any) {
			doc["parallel_wall_s"] = 4.4 // legacy flat-schema key
		},
		"unknown row field": func(_ map[string]any, rows []map[string]any) {
			rows[2]["wall_ms"] = 2500.0
		},
		"missing rows": func(doc map[string]any, _ []map[string]any) {
			doc["_drop_rows"] = true
		},
		"diverged row": func(_ map[string]any, rows []map[string]any) {
			rows[3]["identical_results"] = false
		},
		"duplicate workers": func(_ map[string]any, rows []map[string]any) {
			rows[1]["workers"] = 1
		},
		"no serial baseline": func(_ map[string]any, rows []map[string]any) {
			rows[0]["workers"] = 3
		},
		"flat topology": func(doc map[string]any, _ []map[string]any) {
			doc["racks"] = 1
		},
		"zero wall clock": func(_ map[string]any, rows []map[string]any) {
			rows[1]["wall_s"] = 0.0
		},
	}
	for name, mutate := range reject {
		if err := harness.CheckBenchPayload("BENCH_parallel.json", parallelBenchDoc(mutate)); err == nil {
			t.Errorf("%s: payload accepted", name)
		}
	}

	// Duplicate JSON keys can't be built through a map; check the raw form.
	dup := []byte(`{"benchmark": "x", "host_cpus": 8, "host_cpus": 8}`)
	if err := harness.CheckBenchPayload("BENCH_parallel.json", dup); err == nil {
		t.Error("duplicate key accepted")
	}
}

// TestCommittedParallelBenchParses keeps the committed BENCH_parallel.json
// present and loadable by the gate: if the benchmark's schema moves, the
// committed artifact must be regenerated in the same change.
func TestCommittedParallelBenchParses(t *testing.T) {
	blob, err := os.ReadFile("BENCH_parallel.json")
	if err != nil {
		t.Fatalf("committed BENCH_parallel.json: %v", err)
	}
	if err := harness.CheckBenchPayload("BENCH_parallel.json", blob); err != nil {
		t.Fatalf("committed BENCH_parallel.json fails validation: %v", err)
	}
}
