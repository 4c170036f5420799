// Package harness is the hypothesis-driven experiment driver: it expands
// parameter grids (ranks × execution mode × fault plan × trace mode/rate ×
// seed) into cells, runs the cells on a bounded worker pool with a mandatory
// per-cell wall-clock timeout, and emits one structured JSON result per cell
// — parameters, status, wall time, virtual-time metrics, and the
// deterministic fingerprints the repo already computes (profile / store /
// trace / hist digests). A committed-baseline diff layer (baseline.go) turns
// a sweep into the one gate for virtual-time results: statuses, metrics and
// fingerprints match exactly, and the perturbation and serving grids' cells
// must also hold their overhead, tail-latency and throughput budgets.
// benchgate.go applies the same strict parsing to the BENCH_*.json files,
// which hold host wall-clock measurements.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Cell statuses. A sweep never wedges: a hung cell is recorded as
// StatusTimeout by the watchdog and a panicking cell as StatusPanic; the
// remaining cells still run.
const (
	StatusOK      = "ok"
	StatusTimeout = "timeout"
	StatusPanic   = "panic"
	StatusError   = "error"
)

// Params identifies one cell: which experiment spec to run and every
// parameter axis the grids sweep. Unused axes are left at their zero value
// (e.g. Faults "" means "none", Trace "" means "off").
type Params struct {
	// Exp names the registered spec ("chiba", "faults", "serve",
	// "traceov", ...).
	Exp string `json:"exp"`
	// Ranks is the MPI rank count (= cluster nodes at one rank per node).
	Ranks int `json:"ranks"`
	// Parallel runs the node engines on multiple host CPUs; Workers caps the
	// worker goroutines (0 = GOMAXPROCS). Execution mode only: results are
	// byte-identical to serial, which the baseline gate exploits.
	Parallel bool `json:"parallel,omitempty"`
	Workers  int  `json:"workers,omitempty"`
	// Racks, when > 1, splits the cluster into this many racks with a higher
	// cross-rack latency (experiments.ChibaSpec.Racks). Unlike
	// Parallel/Workers this changes the simulated network — and therefore
	// results and fingerprints — so it is part of the cell's Name.
	Racks int `json:"racks,omitempty"`
	// Faults selects the fault plan: "", "none", "degraded" or "crash".
	Faults string `json:"faults,omitempty"`
	// Trace selects the trace pipeline: "", "off", "full" or "adaptive".
	Trace string `json:"trace,omitempty"`
	// Rate is the adaptive sampling base rate (0 = spec default).
	Rate float64 `json:"rate,omitempty"`
	// Seed drives all simulation randomness.
	Seed uint64 `json:"seed"`
}

// Name renders the cell's stable identity, the key the baseline diff uses:
// "chiba/r8-serial-degraded-adaptive0.25-s42".
func (p Params) Name() string {
	mode := "serial"
	if p.Parallel {
		mode = "par"
		if p.Workers > 0 {
			mode = fmt.Sprintf("par%d", p.Workers)
		}
	}
	faults := p.Faults
	if faults == "" {
		faults = "none"
	}
	trace := p.Trace
	if trace == "" {
		trace = "off"
	}
	if trace == "adaptive" && p.Rate > 0 {
		trace = fmt.Sprintf("adaptive%g", p.Rate)
	}
	racks := ""
	if p.Racks > 1 {
		racks = fmt.Sprintf("-rk%d", p.Racks)
	}
	return fmt.Sprintf("%s/r%d%s-%s-%s-%s-s%d", p.Exp, p.Ranks, racks, mode, faults, trace, p.Seed)
}

// CellResult is one cell's structured outcome. Everything except WallMS is
// a deterministic function of Params for the built-in specs, which is what
// makes committed baselines possible.
type CellResult struct {
	Name   string `json:"name"`
	Params Params `json:"params"`
	// Status is ok / timeout / panic / error.
	Status string `json:"status"`
	// Err carries the panic value or error message for non-ok cells.
	Err string `json:"error,omitempty"`
	// WallMS is host wall-clock time — the only non-deterministic field.
	WallMS float64 `json:"wall_ms"`
	// Metrics are virtual-time quantities (exec seconds, frame counts,
	// latency quantiles, ...) — deterministic for a fixed seed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Fingerprints are hex SHA-256 digests of the run's observable byte
	// streams: packed /proc/ktau profiles, collector store exports, the
	// merged Chrome trace, the latency-histogram store's AppendBinary form.
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	// Text is the human render (ktau-exp prints it); not persisted.
	Text string `json:"-"`
	// Raw is the underlying experiment result (ktau-exp's -trace-out needs
	// it); not persisted.
	Raw any `json:"-"`
}

// StableJSON marshals the cell with wall-clock fields zeroed: two runs of
// the same cell must produce byte-identical StableJSON output.
func (c *CellResult) StableJSON() ([]byte, error) {
	cp := *c
	cp.WallMS = 0
	return json.MarshalIndent(&cp, "", "  ")
}

// SpecFunc runs one cell body. It fills Metrics / Fingerprints / Text / Raw
// on the result it returns; Name, Params, Status and WallMS are managed by
// RunCell. The context carries the cell deadline — simulation specs bound
// themselves with virtual-time job deadlines and may ignore it, but
// cooperative specs (and anything spinning on host state) should honor it.
type SpecFunc func(ctx context.Context, p Params) *CellResult

var (
	specMu sync.RWMutex
	specs  = map[string]SpecFunc{}
)

// Register installs a named spec. Registering an existing name panics:
// silent shadowing would corrupt baselines.
func Register(name string, fn SpecFunc) {
	specMu.Lock()
	defer specMu.Unlock()
	if _, dup := specs[name]; dup {
		panic("harness: duplicate spec " + name)
	}
	specs[name] = fn
}

// Specs lists the registered spec names, sorted.
func Specs() []string {
	specMu.RLock()
	defer specMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (SpecFunc, bool) {
	specMu.RLock()
	defer specMu.RUnlock()
	fn, ok := specs[name]
	return fn, ok
}

// RunCell executes one cell synchronously: spec lookup, panic recovery,
// wall-clock accounting. It never panics — a panicking spec produces a
// StatusPanic cell carrying the panic value and stack head. Timeout
// enforcement lives in the sweep runner's watchdog (a cell run directly via
// RunCell is bounded only by the context the caller supplies).
func RunCell(ctx context.Context, p Params) (res *CellResult) {
	start := time.Now()
	finish := func(c *CellResult) *CellResult {
		c.Name = p.Name()
		c.Params = p
		if c.Status == "" {
			c.Status = StatusOK
		}
		c.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		return c
	}
	fn, ok := lookup(p.Exp)
	if !ok {
		return finish(&CellResult{
			Status: StatusError,
			Err:    fmt.Sprintf("unknown experiment spec %q (known: %v)", p.Exp, Specs()),
		})
	}
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 2048 {
				stack = stack[:2048]
			}
			res = finish(&CellResult{
				Status: StatusPanic,
				Err:    fmt.Sprintf("panic: %v\n%s", r, stack),
			})
		}
	}()
	return finish(fn(ctx, p))
}

// fingerprinter accumulates one digest stream.
type fingerprinter struct{ h hash.Hash }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: sha256.New()} }

func (f *fingerprinter) Write(p []byte) (int, error) { return f.h.Write(p) }

func (f *fingerprinter) printf(format string, args ...any) {
	fmt.Fprintf(f.h, format, args...)
}

func (f *fingerprinter) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// mustExport streams an export into the digest, folding any export error
// into the stream itself (so an error changes the fingerprint loudly
// instead of being dropped).
func (f *fingerprinter) mustExport(name string, export func(io.Writer) error) {
	if err := export(f.h); err != nil {
		f.printf("%s export error: %v\n", name, err)
	}
}
