package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// The BENCH_*.json regression gates, formerly sed/awk scraping in
// scripts/check.sh. Each check names a flattened (dot-joined) key that must
// exist exactly once and satisfy the comparison; parsing is strict — a
// missing, duplicated or non-numeric key fails loudly instead of producing
// an empty or multi-line sed capture.

// BenchCheck is one threshold on one key: a flattened BENCH_*.json key here,
// or a sweep-cell metric in gridBudgets.
type BenchCheck struct {
	Key   string  // dotted path, e.g. "chiba32_serial.chiba_speedup_x"
	Op    string  // "<=", ">=", "<"
	Limit float64 // threshold
	Why   string  // one-line rationale printed on failure
}

// benchGates maps BENCH file name -> its checks. Files listed with no
// checks are still strict-parsed (duplicate-key detection).
var benchGates = map[string][]BenchCheck{
	"BENCH_core.json": {
		{Key: "chiba32_serial.chiba_speedup_x", Op: ">=", Limit: 1.25,
			Why: "serial Chiba must stay well ahead of the recorded seed baseline"},
		{Key: "chiba32_serial.after_allocs", Op: "<=", Limit: 50000,
			Why: "the serial 32-node Chiba run's packet path allocates nothing in steady state " +
				"(about 23 k allocations per run, against 1.47 M when every frame allocated); " +
				"the count depends on the code and the Go version, not on host load"},
		{Key: "serve64_serial.after_alloc_bytes", Op: "<=", Limit: 34e6,
			Why: "the serial 64-node serving run holds latency cells only where requests land and " +
				"recycles its requests (45.7 MB allocated when every client node's shard held the full " +
				"tenants x nodes grid and every arrival allocated, about 27.7 MB after); " +
				"the volume depends on the code and the Go version, not on host load"},
		{Key: "trace32_serial.after_alloc_bytes", Op: "<=", Limit: 77e6,
			Why: "the serial 32-node traced run and its Chrome export keep trace memory to the records " +
				"kept: on-demand kernel rings, records kept in the wire's varint layout from the agent's " +
				"ring read to the collector's store, and an export that places its merge references one " +
				"bucket range at a time (105.1 MB allocated when the collector stored 24-byte records, " +
				"87.2 MB when agents and sinks still decoded 40-byte records, about 69 MB after); " +
				"the volume depends on the code and the Go version, not on host load"},
	},
	// BENCH_parallel.json has a rows-based schema with conditional gating
	// (speedup thresholds only make sense on multi-core hosts) and is
	// handled by ParseParallelBench / GateParallelBench instead of flat
	// key thresholds.
	"BENCH_parallel.json": nil,
}

// BenchFiles lists the gated file names, sorted.
func BenchFiles() []string {
	out := make([]string, 0, len(benchGates))
	for name := range benchGates {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// GateBenchFiles strict-parses every BENCH file in dir and applies its
// checks, returning one violation string per failure (empty = all green).
// Missing files are violations: a gate that silently skips is no gate.
// Passing checks are logged to log (if non-nil) so check.sh output still
// shows the measured values.
func GateBenchFiles(dir string, log io.Writer) []string {
	var v []string
	for _, name := range BenchFiles() {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			v = append(v, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		flat, err := FlattenJSON(data)
		if err != nil {
			v = append(v, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		v = append(v, checkAll(name, benchGates[name], flat, log)...)
		if name == "BENCH_parallel.json" {
			pb, err := ParseParallelBench(data)
			if err != nil {
				v = append(v, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			v = append(v, GateParallelBench(pb, log)...)
		}
	}
	return v
}

// ParallelBenchRow is one {workers, GOMAXPROCS} configuration of the
// partitioned-runner worker sweep.
type ParallelBenchRow struct {
	// Workers is the runner worker-goroutine count of the row.
	Workers int `json:"workers"`
	// Gomaxprocs is the host GOMAXPROCS the row ran under (min(workers,
	// host_cpus) — workers beyond the core count cannot run simultaneously).
	Gomaxprocs int `json:"gomaxprocs"`
	// WallS is the row's host wall-clock seconds.
	WallS float64 `json:"wall_s"`
	// Speedup is serial_wall_s / wall_s.
	Speedup float64 `json:"speedup"`
	// IdenticalResults records that the row's virtual results fingerprint
	// matched the serial baseline byte for byte. Any row with false fails
	// validation: wall-clock numbers for a divergent run are meaningless.
	IdenticalResults bool `json:"identical_results"`
}

// ParallelBench is the BENCH_parallel.json schema: one serial baseline plus
// per-{workers, GOMAXPROCS} rows on a racked (partitioned-runner) topology.
type ParallelBench struct {
	Benchmark string `json:"benchmark"`
	// HostCPUs is runtime.NumCPU() of the machine that produced the file;
	// the speedup gate conditions on it.
	HostCPUs int `json:"host_cpus"`
	Nodes    int `json:"nodes"`
	Ranks    int `json:"ranks"`
	// Racks is the topology's rack count; must be >= 2 so the sweep
	// actually exercises the partitioned runner.
	Racks int `json:"racks"`
	// SerialWallS is the workers=1 baseline wall clock.
	SerialWallS float64 `json:"serial_wall_s"`
	// VirtualExecS is the job's virtual execution time (identical across
	// rows by construction).
	VirtualExecS float64            `json:"virtual_exec_s"`
	Rows         []ParallelBenchRow `json:"rows"`
}

// ParseParallelBench strict-parses and validates a BENCH_parallel.json
// document: no duplicate keys anywhere, no unknown fields, and the schema
// invariants that hold on every host — rows sorted by strictly increasing
// worker count starting at the serial baseline, positive wall clocks, and
// identical_results true on every row. Speedup *thresholds* live in
// GateParallelBench because they depend on the recording host's cores.
func ParseParallelBench(data []byte) (*ParallelBench, error) {
	if _, err := FlattenJSON(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pb ParallelBench
	if err := dec.Decode(&pb); err != nil {
		return nil, fmt.Errorf("parallel bench schema: %w", err)
	}
	if pb.Benchmark == "" {
		return nil, fmt.Errorf("parallel bench: benchmark label missing")
	}
	if pb.HostCPUs < 1 {
		return nil, fmt.Errorf("parallel bench: host_cpus = %d, want >= 1", pb.HostCPUs)
	}
	if pb.Nodes < 2 || pb.Ranks < 2 {
		return nil, fmt.Errorf("parallel bench: nodes=%d ranks=%d, want >= 2", pb.Nodes, pb.Ranks)
	}
	if pb.Racks < 2 {
		return nil, fmt.Errorf("parallel bench: racks = %d, want >= 2 (the sweep must exercise the partitioned runner)", pb.Racks)
	}
	if pb.SerialWallS <= 0 || pb.VirtualExecS <= 0 {
		return nil, fmt.Errorf("parallel bench: non-positive serial_wall_s %g or virtual_exec_s %g",
			pb.SerialWallS, pb.VirtualExecS)
	}
	if len(pb.Rows) < 2 {
		return nil, fmt.Errorf("parallel bench: %d rows, want >= 2 (serial baseline plus at least one parallel row)", len(pb.Rows))
	}
	if pb.Rows[0].Workers != 1 {
		return nil, fmt.Errorf("parallel bench: first row has workers=%d, want the workers=1 serial baseline", pb.Rows[0].Workers)
	}
	for i, r := range pb.Rows {
		if i > 0 && r.Workers <= pb.Rows[i-1].Workers {
			return nil, fmt.Errorf("parallel bench: rows[%d].workers = %d not strictly above rows[%d].workers = %d",
				i, r.Workers, i-1, pb.Rows[i-1].Workers)
		}
		if r.Gomaxprocs < 1 {
			return nil, fmt.Errorf("parallel bench: rows[%d].gomaxprocs = %d, want >= 1", i, r.Gomaxprocs)
		}
		if r.WallS <= 0 || r.Speedup <= 0 {
			return nil, fmt.Errorf("parallel bench: rows[%d] non-positive wall_s %g or speedup %g", i, r.WallS, r.Speedup)
		}
		if !r.IdenticalResults {
			return nil, fmt.Errorf("parallel bench: rows[%d] (workers=%d) identical_results=false — parallel run diverged from serial",
				i, r.Workers)
		}
	}
	return &pb, nil
}

// Speedup gate thresholds: on a host with >= ParallelGateFullCPUs cores the
// 8-worker row must reach ParallelGateSpeedup; with >= ParallelGateMinCPUs
// cores speedup must still strictly increase with worker count (up to the
// core count); below that the gate skips loudly — a single-core host cannot
// measure parallelism, and silently passing would be indistinguishable from
// gating.
const (
	ParallelGateMinCPUs  = 4
	ParallelGateFullCPUs = 8
	ParallelGateSpeedup  = 4.0
)

// GateParallelBench applies the conditional multi-core speedup gate to an
// already-validated payload, returning violations (empty = pass or skip).
func GateParallelBench(pb *ParallelBench, log io.Writer) []string {
	const name = "BENCH_parallel.json"
	if pb.HostCPUs < ParallelGateMinCPUs {
		if log != nil {
			fmt.Fprintf(log, "%s: SPEEDUP GATE SKIPPED: host_cpus = %d < %d — a near-single-core host cannot measure multi-core speedup; schema and identical_results were still enforced\n",
				name, pb.HostCPUs, ParallelGateMinCPUs)
		}
		return nil
	}
	var v []string
	// Speedup must strictly increase with worker count while workers still
	// map to distinct cores; beyond the core count extra workers only add
	// scheduling noise, so those rows are exempt from monotonicity.
	prev := pb.Rows[0]
	for _, r := range pb.Rows[1:] {
		if r.Workers > pb.HostCPUs {
			break
		}
		if r.Speedup <= prev.Speedup {
			v = append(v, fmt.Sprintf("%s: speedup %g at %d workers does not improve on %g at %d workers (host_cpus=%d) — the partitioned runner is not scaling",
				name, r.Speedup, r.Workers, prev.Speedup, prev.Workers, pb.HostCPUs))
		} else if log != nil {
			fmt.Fprintf(log, "%s: %d workers: speedup %.2fx > %.2fx at %d workers ok\n",
				name, r.Workers, r.Speedup, prev.Speedup, prev.Workers)
		}
		prev = r
	}
	if pb.HostCPUs >= ParallelGateFullCPUs {
		gated := false
		for _, r := range pb.Rows {
			if r.Workers != ParallelGateFullCPUs {
				continue
			}
			gated = true
			if r.Speedup < ParallelGateSpeedup {
				v = append(v, fmt.Sprintf("%s: speedup %g at %d workers below the %gx floor (host_cpus=%d)",
					name, r.Speedup, r.Workers, ParallelGateSpeedup, pb.HostCPUs))
			} else if log != nil {
				fmt.Fprintf(log, "%s: %d workers: speedup %.2fx >= %.2fx floor ok\n",
					name, r.Workers, r.Speedup, ParallelGateSpeedup)
			}
		}
		if !gated {
			v = append(v, fmt.Sprintf("%s: host has %d cpus but no %d-worker row to gate",
				name, pb.HostCPUs, ParallelGateFullCPUs))
		}
	} else if log != nil {
		fmt.Fprintf(log, "%s: %gx floor skipped: host_cpus = %d < %d (monotonicity still gated)\n",
			name, ParallelGateSpeedup, pb.HostCPUs, ParallelGateFullCPUs)
	}
	return v
}

// checkAll applies checks to values and returns one line per missing key
// or broken threshold, each starting with label. Passing checks are logged
// to log when it is non-nil.
func checkAll(label string, checks []BenchCheck, values map[string]float64, log io.Writer) []string {
	var v []string
	for _, c := range checks {
		val, ok := values[c.Key]
		switch {
		case !ok:
			v = append(v, fmt.Sprintf("%s: key %q missing or not a number, want %s %g — %s",
				label, c.Key, c.Op, c.Limit, c.Why))
		case !c.holds(val):
			v = append(v, fmt.Sprintf("%s: %s = %g violates %s %g — %s",
				label, c.Key, val, c.Op, c.Limit, c.Why))
		case log != nil:
			fmt.Fprintf(log, "%s: %s = %g %s %g ok\n", label, c.Key, val, c.Op, c.Limit)
		}
	}
	return v
}

func (c BenchCheck) holds(val float64) bool {
	switch c.Op {
	case "<=":
		return val <= c.Limit
	case ">=":
		return val >= c.Limit
	case "<":
		return val < c.Limit
	case ">":
		return val > c.Limit
	default:
		return false
	}
}

// CheckBenchPayload validates a BENCH payload at write time: it must
// strict-parse, and every key its gate will read must already be present.
// The bench writers call this so a renamed key fails the benchmark that
// writes the file, not a later check.sh run.
func CheckBenchPayload(path string, data []byte) error {
	flat, err := FlattenJSON(data)
	if err != nil {
		return err
	}
	base := filepath.Base(path)
	for _, c := range benchGates[base] {
		if _, ok := flat[c.Key]; !ok {
			return fmt.Errorf("%s: gated key %q missing (or non-numeric)", base, c.Key)
		}
	}
	if base == "BENCH_parallel.json" {
		if _, err := ParseParallelBench(data); err != nil {
			return fmt.Errorf("%s: %w", base, err)
		}
	}
	return nil
}

// maxFlattenDepth bounds object and array nesting in FlattenJSON. The
// documents it reads nest four levels deep; every level holds its own
// dotted prefix, so unbounded nesting costs memory quadratic in the input
// (50 000 levels of '[', a 100 KB input, held 2.6 GB).
const maxFlattenDepth = 64

// FlattenJSON parses a JSON document into dotted-key/numeric-value pairs
// ("rows.2.slowdown_pct": 3.28). Non-numeric leaves are skipped for the
// value map but still checked structurally. Duplicate keys at any object
// level are an error — the exact failure mode sed scraping silently
// mangled into multi-line captures — and so is nesting deeper than
// maxFlattenDepth.
func FlattenJSON(data []byte) (map[string]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	out := map[string]float64{}
	if err := flattenValue(dec, "", 0, out); err != nil {
		return nil, err
	}
	// Trailing garbage after the top-level value is an error too.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after JSON document")
	}
	return out, nil
}

func flattenValue(dec *json.Decoder, prefix string, depth int, out map[string]float64) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("at %q: %w", prefix, err)
	}
	switch t := tok.(type) {
	case json.Delim:
		if depth == maxFlattenDepth {
			return fmt.Errorf("at %q: nested deeper than %d levels", prefix, maxFlattenDepth)
		}
		switch t {
		case '{':
			seen := map[string]bool{}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return fmt.Errorf("at %q: %w", prefix, err)
				}
				key := keyTok.(string)
				if seen[key] {
					return fmt.Errorf("duplicate key %q in object %q", key, orRoot(prefix))
				}
				seen[key] = true
				if err := flattenValue(dec, join(prefix, key), depth+1, out); err != nil {
					return err
				}
			}
			_, err := dec.Token() // consume '}'
			return err
		case '[':
			for i := 0; dec.More(); i++ {
				if err := flattenValue(dec, join(prefix, strconv.Itoa(i)), depth+1, out); err != nil {
					return err
				}
			}
			_, err := dec.Token() // consume ']'
			return err
		}
		return fmt.Errorf("unexpected delimiter %v at %q", t, prefix)
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return nil // e.g. out-of-range; structurally fine, just not gateable
		}
		out[prefix] = f
		return nil
	case bool:
		if t {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
		return nil
	default: // string, nil
		return nil
	}
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

func orRoot(prefix string) string {
	if prefix == "" {
		return "(root)"
	}
	return prefix
}
