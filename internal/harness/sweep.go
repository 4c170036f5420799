package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// DefaultCellTimeout bounds a cell when SweepConfig.Timeout is unset. The
// timeout is mandatory — there is no way to run an unbounded sweep.
const DefaultCellTimeout = 2 * time.Minute

// SweepConfig drives RunSweep.
type SweepConfig struct {
	// Timeout is the mandatory per-cell wall-clock budget (0 = the
	// DefaultCellTimeout). A cell that exceeds it is recorded as a timeout
	// cell and the sweep moves on.
	Timeout time.Duration
	// Jobs bounds concurrently running cells (0 or less = 1). Cells are
	// independent simulations; their results are position-stable regardless
	// of scheduling.
	Jobs int
	// OutDir, when set, receives one JSON file per cell plus report.json.
	OutDir string
	// Log, when set, receives one progress line per cell as it finishes.
	Log io.Writer
}

// SweepResult is the whole sweep: one entry per grid cell, grid order.
type SweepResult struct {
	Grid      string        `json:"grid"`
	TimeoutMS float64       `json:"timeout_ms"`
	Cells     []*CellResult `json:"cells"`
}

// Failed describes each cell whose status is not ok: its name, status and
// the first line of its error.
func (s *SweepResult) Failed() []string {
	var out []string
	for _, c := range s.Cells {
		if c.Status != StatusOK {
			msg := c.Name + ": " + c.Status
			if first, _, _ := strings.Cut(c.Err, "\n"); first != "" {
				msg += ": " + first
			}
			out = append(out, msg)
		}
	}
	return out
}

// RunSweep expands the grid and runs every cell on a bounded worker pool.
// Each cell is wrapped in a context deadline plus a watchdog: the cell body
// runs in its own goroutine, and if it has not returned when the deadline
// passes, the watchdog records a timeout cell, releases the pool slot and
// abandons the goroutine — a hung simulation can cost a leaked goroutine,
// never a wedged sweep. Panics are recovered per cell (StatusPanic). The
// sweep itself always returns a complete per-cell report.
func RunSweep(grid Grid, cfg SweepConfig) (*SweepResult, error) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultCellTimeout
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	cells := grid.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("harness: grid %q expands to no cells", grid.Name)
	}

	res := &SweepResult{
		Grid:      grid.Name,
		TimeoutMS: float64(timeout) / float64(time.Millisecond),
		Cells:     make([]*CellResult, len(cells)),
	}
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, jobs)
		mu  sync.Mutex // serialises Log writes
	)
	for i, p := range cells {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, p Params) {
			defer wg.Done()
			defer func() { <-sem }()
			cell := runBounded(p, timeout)
			res.Cells[i] = cell
			if cfg.Log != nil {
				mu.Lock()
				fmt.Fprintf(cfg.Log, "cell %-44s %-8s %8.0fms\n", cell.Name, cell.Status, cell.WallMS)
				mu.Unlock()
			}
		}(i, p)
	}
	wg.Wait()

	if cfg.OutDir != "" {
		if err := writeCellFiles(cfg.OutDir, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// runBounded executes one cell under the watchdog.
func runBounded(p Params, timeout time.Duration) *CellResult {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan *CellResult, 1)
	go func() {
		// RunCell recovers panics itself, so this goroutine always sends.
		done <- RunCell(ctx, p)
	}()
	select {
	case cell := <-done:
		return cell
	case <-ctx.Done():
		return &CellResult{
			Name:   p.Name(),
			Params: p,
			Status: StatusTimeout,
			Err:    fmt.Sprintf("cell exceeded the %v wall-clock timeout and was abandoned", timeout),
			WallMS: float64(timeout) / float64(time.Millisecond),
		}
	}
}

// writeCellFiles writes one JSON file per cell plus the combined report.
func writeCellFiles(dir string, res *SweepResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cell := range res.Cells {
		data, err := json.MarshalIndent(cell, "", "  ")
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(cell.Name, "/", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.json"), append(data, '\n'), 0o644)
}
