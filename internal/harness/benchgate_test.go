package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodBench writes a passing set of BENCH files into dir.
func goodBench(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"BENCH_core.json": `{
  "chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000, "alloc_reduction_x": "inf"},
  "serve64_serial": {"after_alloc_bytes": 27.7e6, "after_allocs": 134680},
  "trace32_serial": {"after_alloc_bytes": 69.0e6, "after_allocs": 205000}
}`,
		"BENCH_parallel.json": goodParallelJSON,
	}
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGateBenchFilesPass(t *testing.T) {
	dir := t.TempDir()
	goodBench(t, dir)
	var log bytes.Buffer
	if v := GateBenchFiles(dir, &log); len(v) != 0 {
		t.Fatalf("good files rejected: %v", v)
	}
	// Passing values are still reported for the check.sh transcript.
	if !strings.Contains(log.String(), "chiba32_serial.chiba_speedup_x") {
		t.Errorf("gate log missing measured values:\n%s", log.String())
	}
}

func TestGateBenchFilesMissingFile(t *testing.T) {
	dir := t.TempDir()
	goodBench(t, dir)
	os.Remove(filepath.Join(dir, "BENCH_core.json"))
	v := GateBenchFiles(dir, nil)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "BENCH_core.json") {
		t.Fatalf("missing file not flagged: %v", v)
	}
}

func TestGateBenchFilesMissingKey(t *testing.T) {
	const serve = `"serve64_serial": {"after_alloc_bytes": 27.7e6}`
	const trace = `"trace32_serial": {"after_alloc_bytes": 69.0e6}`
	blobs := map[string]string{
		"chiba32_serial.chiba_speedup_x":   `{"chiba32_serial": {"after_allocs": 23000, "alloc_reduction_x": "inf"}, ` + serve + `, ` + trace + `}`,
		"chiba32_serial.after_allocs":      `{"chiba32_serial": {"chiba_speedup_x": 1.8, "alloc_reduction_x": "inf"}, ` + serve + `, ` + trace + `}`,
		"serve64_serial.after_alloc_bytes": `{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "serve64_serial": {"after_allocs": 134680}, ` + trace + `}`,
		"trace32_serial.after_alloc_bytes": `{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, ` + serve + `, "trace32_serial": {"after_allocs": 205000}}`,
	}
	for key, blob := range blobs {
		dir := t.TempDir()
		goodBench(t, dir)
		os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
		v := GateBenchFiles(dir, nil)
		if len(v) != 1 || !strings.Contains(v[0], `"`+key+`" missing`) {
			t.Fatalf("missing %s not flagged alone: %v", key, v)
		}
	}
}

func TestGateBenchFilesDuplicateKey(t *testing.T) {
	dir := t.TempDir()
	goodBench(t, dir)
	blob := `{"chiba32_serial": {"chiba_speedup_x": 1.8, "chiba_speedup_x": 1.9}}`
	os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
	v := strings.Join(GateBenchFiles(dir, nil), "\n")
	if !strings.Contains(v, "duplicate key") {
		t.Fatalf("duplicate key not flagged: %v", v)
	}
}

func TestGateBenchFilesThreshold(t *testing.T) {
	dir := t.TempDir()
	goodBench(t, dir)
	const serve = `"serve64_serial": {"after_alloc_bytes": 27.7e6}, "trace32_serial": {"after_alloc_bytes": 69.0e6}`
	blob := `{"chiba32_serial": {"chiba_speedup_x": 1.1, "after_allocs": 23000}, ` + serve + `}` // under the 1.25x floor
	os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
	v := strings.Join(GateBenchFiles(dir, nil), "\n")
	if !strings.Contains(v, "chiba_speedup_x") || !strings.Contains(v, "violates") {
		t.Fatalf("threshold violation not flagged: %v", v)
	}
	// The allocation budget: a serial Chiba run that allocates per frame
	// again (the 1.47 M of an allocating packet path) fails the gate.
	blob = `{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 1472669}, ` + serve + `}`
	os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
	v = strings.Join(GateBenchFiles(dir, nil), "\n")
	if !strings.Contains(v, "after_allocs") || !strings.Contains(v, "violates") {
		t.Fatalf("allocation budget violation not flagged: %v", v)
	}
	// The serving run's budget: a run whose client nodes hold full latency
	// grids and allocate every request again (45.7 MB) fails the gate.
	blob = `{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "serve64_serial": {"after_alloc_bytes": 45.7e6}, "trace32_serial": {"after_alloc_bytes": 69.0e6}}`
	os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
	gv := GateBenchFiles(dir, nil)
	if len(gv) != 1 || !strings.Contains(gv[0], "serve64_serial.after_alloc_bytes") || !strings.Contains(gv[0], "violates") {
		t.Fatalf("serve allocation budget violation not flagged alone: %v", gv)
	}
	// The traced run's budget: a run whose agents and sinks decode every
	// record into a 40-byte Rec again (87.2 MB) fails the gate.
	blob = `{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "serve64_serial": {"after_alloc_bytes": 27.7e6}, "trace32_serial": {"after_alloc_bytes": 87.2e6}}`
	os.WriteFile(filepath.Join(dir, "BENCH_core.json"), []byte(blob), 0o644)
	gv = GateBenchFiles(dir, nil)
	if len(gv) != 1 || !strings.Contains(gv[0], "trace32_serial.after_alloc_bytes") || !strings.Contains(gv[0], "violates") {
		t.Fatalf("trace allocation budget violation not flagged alone: %v", gv)
	}
}

func TestCheckBenchPayload(t *testing.T) {
	ok := []byte(`{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "serve64_serial": {"after_alloc_bytes": 27.7e6}, "trace32_serial": {"after_alloc_bytes": 69.0e6}}`)
	if err := CheckBenchPayload("BENCH_core.json", ok); err != nil {
		t.Fatal(err)
	}
	missing := []byte(`{"chiba32_serial": {}}`)
	if err := CheckBenchPayload("BENCH_core.json", missing); err == nil {
		t.Fatal("missing gated key accepted at write time")
	}
	noServe := []byte(`{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "trace32_serial": {"after_alloc_bytes": 69.0e6}}`)
	if err := CheckBenchPayload("BENCH_core.json", noServe); err == nil || !strings.Contains(err.Error(), "serve64_serial.after_alloc_bytes") {
		t.Fatalf("payload without the serve budget's key accepted at write time: %v", err)
	}
	noTrace := []byte(`{"chiba32_serial": {"chiba_speedup_x": 1.8, "after_allocs": 23000}, "serve64_serial": {"after_alloc_bytes": 27.7e6}}`)
	if err := CheckBenchPayload("BENCH_core.json", noTrace); err == nil || !strings.Contains(err.Error(), "trace32_serial.after_alloc_bytes") {
		t.Fatalf("payload without the trace budget's key accepted at write time: %v", err)
	}
	// The parallel file gets the full rows-schema validation at write time.
	if err := CheckBenchPayload("BENCH_parallel.json", []byte(goodParallelJSON)); err != nil {
		t.Fatal(err)
	}
	if err := CheckBenchPayload("BENCH_parallel.json", []byte(`{"a": 1}`)); err == nil {
		t.Fatal("schema-less parallel payload accepted at write time")
	}
	if err := CheckBenchPayload("BENCH_parallel.json", []byte(`{"a": 1, "a": 2}`)); err == nil {
		t.Fatal("duplicate key accepted at write time")
	}
}

func TestFlattenJSON(t *testing.T) {
	blob := []byte(`{
  "a": 1.5,
  "b": {"c": 2, "d": "text", "e": null},
  "rows": [{"x": 3}, {"x": 4}],
  "flag": true
}`)
	flat, err := FlattenJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"a": 1.5, "b.c": 2, "rows.0.x": 3, "rows.1.x": 4, "flag": 1,
	}
	if len(flat) != len(want) {
		t.Fatalf("got %v, want %v", flat, want)
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("%s = %g, want %g", k, flat[k], v)
		}
	}
}

// goodParallelJSON is a valid single-core BENCH_parallel.json document: the
// rows degenerate to ~1x speedups, which is exactly what the conditional
// gate must tolerate (and loudly skip) when host_cpus is low.
const goodParallelJSON = `{
  "benchmark": "128-node 8-rack Chiba LU, partitioned-runner worker sweep vs serial",
  "host_cpus": 1,
  "nodes": 128,
  "racks": 8,
  "ranks": 128,
  "rows": [
    {"workers": 1, "gomaxprocs": 1, "wall_s": 8.0, "speedup": 1.0, "identical_results": true},
    {"workers": 2, "gomaxprocs": 1, "wall_s": 8.1, "speedup": 0.9876, "identical_results": true},
    {"workers": 4, "gomaxprocs": 1, "wall_s": 8.2, "speedup": 0.9756, "identical_results": true},
    {"workers": 8, "gomaxprocs": 1, "wall_s": 8.3, "speedup": 0.9638, "identical_results": true}
  ],
  "serial_wall_s": 8.0,
  "virtual_exec_s": 3.6
}`

// parallelDoc builds a schema-valid payload with the given host CPU count
// and per-row (workers, speedup) pairs.
func parallelDoc(hostCPUs int, rows [][2]float64) string {
	var b strings.Builder
	b.WriteString(`{"benchmark": "sweep", "host_cpus": `)
	fmt.Fprintf(&b, "%d", hostCPUs)
	b.WriteString(`, "nodes": 128, "ranks": 128, "racks": 8, "serial_wall_s": 8.0, "virtual_exec_s": 3.6, "rows": [`)
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"workers": %d, "gomaxprocs": %d, "wall_s": %g, "speedup": %g, "identical_results": true}`,
			int(r[0]), min(int(r[0]), hostCPUs), 8.0/r[1], r[1])
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestParseParallelBenchRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6, "bogus": 1,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true}]}`,
		"unknown row field": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true, "extra": 0}]}`,
		"duplicate key": `{"benchmark": "x", "host_cpus": 1, "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true}]}`,
		"flat legacy schema": `{"benchmark": "x", "host_cpus": 1, "gomaxprocs": 1, "nodes": 128, "ranks": 128,
			"serial_wall_s": 8, "parallel_wall_s": 8, "speedup": 1, "virtual_exec_s": 3.6, "identical_results": true}`,
		"diverged row": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": false}]}`,
		"non-increasing workers": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true}]}`,
		"missing serial baseline": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 8,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 4, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true}]}`,
		"unracked sweep": `{"benchmark": "x", "host_cpus": 1, "nodes": 128, "ranks": 128, "racks": 1,
			"serial_wall_s": 8, "virtual_exec_s": 3.6,
			"rows": [{"workers": 1, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true},
			         {"workers": 2, "gomaxprocs": 1, "wall_s": 8, "speedup": 1, "identical_results": true}]}`,
	}
	if _, err := ParseParallelBench([]byte(goodParallelJSON)); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for name, blob := range cases {
		if _, err := ParseParallelBench([]byte(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGateParallelBenchSkipsOnFewCores(t *testing.T) {
	pb, err := ParseParallelBench([]byte(goodParallelJSON))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if v := GateParallelBench(pb, &log); len(v) != 0 {
		t.Fatalf("single-core payload gated: %v", v)
	}
	if !strings.Contains(log.String(), "SPEEDUP GATE SKIPPED") {
		t.Fatalf("skip was not loud:\n%s", log.String())
	}
}

func TestGateParallelBenchFullHost(t *testing.T) {
	// 8 cores, healthy scaling: monotonic and >= 4x at 8 workers.
	good := parallelDoc(8, [][2]float64{{1, 1}, {2, 1.8}, {4, 3.2}, {8, 4.6}})
	pb, err := ParseParallelBench([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if v := GateParallelBench(pb, &log); len(v) != 0 {
		t.Fatalf("healthy scaling gated: %v", v)
	}
	if !strings.Contains(log.String(), "floor ok") {
		t.Errorf("gate log missing the 4x floor check:\n%s", log.String())
	}

	// Same host, 8-worker row under the 4x floor.
	slow := parallelDoc(8, [][2]float64{{1, 1}, {2, 1.8}, {4, 3.2}, {8, 3.4}})
	pb, err = ParseParallelBench([]byte(slow))
	if err != nil {
		t.Fatal(err)
	}
	v := strings.Join(GateParallelBench(pb, nil), "\n")
	if !strings.Contains(v, "below the 4x floor") {
		t.Fatalf("sub-4x speedup not flagged: %v", v)
	}

	// Non-monotonic scaling: 4 workers slower than 2.
	flat := parallelDoc(8, [][2]float64{{1, 1}, {2, 2.1}, {4, 1.9}, {8, 4.2}})
	pb, err = ParseParallelBench([]byte(flat))
	if err != nil {
		t.Fatal(err)
	}
	v = strings.Join(GateParallelBench(pb, nil), "\n")
	if !strings.Contains(v, "not scaling") {
		t.Fatalf("non-monotonic speedup not flagged: %v", v)
	}
}

func TestGateParallelBenchMidHost(t *testing.T) {
	// 4 cores: monotonicity is gated up to 4 workers; the 8-worker row is
	// exempt from both monotonicity and the 4x floor.
	pb, err := ParseParallelBench([]byte(parallelDoc(4, [][2]float64{{1, 1}, {2, 1.7}, {4, 2.8}, {8, 2.5}})))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if v := GateParallelBench(pb, &log); len(v) != 0 {
		t.Fatalf("4-core payload gated: %v", v)
	}
	if !strings.Contains(log.String(), "floor skipped") {
		t.Errorf("4x-floor skip not logged:\n%s", log.String())
	}
	// But a regression inside the core count still fails.
	pb, err = ParseParallelBench([]byte(parallelDoc(4, [][2]float64{{1, 1}, {2, 1.7}, {4, 1.5}, {8, 2.5}})))
	if err != nil {
		t.Fatal(err)
	}
	if v := GateParallelBench(pb, nil); len(v) == 0 {
		t.Fatal("in-core-count regression not flagged on a 4-core host")
	}
}

func TestGateBenchFilesParallelSchema(t *testing.T) {
	// GateBenchFiles must route BENCH_parallel.json through the rows-schema
	// validation, not just flat parsing.
	dir := t.TempDir()
	goodBench(t, dir)
	blob := `{"speedup": 1.0, "identical_results": true}` // pre-rows legacy shape
	os.WriteFile(filepath.Join(dir, "BENCH_parallel.json"), []byte(blob), 0o644)
	v := strings.Join(GateBenchFiles(dir, nil), "\n")
	if !strings.Contains(v, "BENCH_parallel.json") {
		t.Fatalf("legacy parallel schema not flagged: %v", v)
	}
}

func TestFlattenJSONErrors(t *testing.T) {
	cases := map[string]string{
		"nested duplicate": `{"a": {"x": 1, "x": 2}}`,
		"trailing data":    `{"a": 1} {"b": 2}`,
		"not json":         `hello`,
		"deep nesting":     strings.Repeat("[", maxFlattenDepth+1) + strings.Repeat("]", maxFlattenDepth+1),
	}
	for name, blob := range cases {
		if _, err := FlattenJSON([]byte(blob)); err == nil {
			t.Errorf("%s: accepted %q", name, blob)
		}
	}
}
