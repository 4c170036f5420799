package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer's public API. Parent is the ID of the enclosing span (-1 for a
// run's root); Run numbers the traced repetitions of one invocation.
type span struct {
	Name    string `json:"name"`
	Run     int    `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps every span of an invocation in memory until dump. A nil
// tracer records nothing, which is how the untraced runs use the same code.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int // indices of the spans still open, innermost last
	// steps holds the host duration of every timed Runner.Step, all runs.
	steps []time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startRun begins a new repetition: its spans get the next run id.
func (t *tracer) startRun() {
	if t != nil {
		t.run++
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Run: t.run, ID: id, Parent: parent,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].EndNS = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:n]
}

func (t *tracer) step(d time.Duration) {
	if t != nil {
		t.steps = append(t.steps, d)
	}
}

// runTotals sums the duration of each span name within one run.
func (t *tracer) runTotals(run int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Run == run {
			out[s.Name] += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return out
}

// computeSelf fills SelfNS: a span's duration minus the time its direct
// children cover (children never overlap: calls nest on one goroutine).
func (t *tracer) computeSelf() {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// summary prints per-name span count, total and self time, largest self
// time first.
func (t *tracer) summary(w io.Writer) {
	type agg struct {
		name        string
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.EndNS - s.StartNS
		a.self += s.SelfNS
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(w, "%-20s %6s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, a := range rows {
		fmt.Fprintf(w, "%-20s %6d %12.3f %12.3f\n", a.name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// sampler polls the Go runtime while a run executes, keeping the peak heap
// in use and the peak goroutine count.
type sampler struct {
	stop, done chan struct{}
	heapPeak   uint64
	goPeak     int
}

// heapMetric is the heap occupied by objects, live or not yet swept: what
// the run holds in memory. Its peak repeats within about 1% between runs,
// while the live heap marked by the last GC jumps by whatever transient the
// GC happened to catch.
const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > s.heapPeak {
			s.heapPeak = v
		}
		if g := runtime.NumGoroutine(); g > s.goPeak {
			s.goPeak = g
		}
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// cpuTime returns the process's user plus system CPU time, all threads. The
// kernel keeps it to the nanosecond and leaves out time the hypervisor
// stole.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileDur returns the q-quantile (nearest rank) of ds.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}
