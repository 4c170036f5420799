package main

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTracedRunMatchesExperiments pins each rebuilt workload to its
// experiments entry point: the traced rebuild must produce the digest of
// RunChiba (at one worker) / RunChibaLive / RunServe, with no violated
// identity, at the default seed (whose digest is committed) and at one
// other seed.
func TestTracedRunMatchesExperiments(t *testing.T) {
	exp, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, w := range workloads {
		for _, seed := range seeds {
			t.Run(w.name+"/seed"+strconv.FormatUint(seed, 10), func(t *testing.T) {
				want, err := w.reference(seed)
				if err != nil {
					t.Fatal(err)
				}
				if e, ok := exp[w.name][strconv.FormatUint(seed, 10)]; ok && e != want {
					t.Errorf("experiments digest %s, expected.json has %s", want, e)
				}
				tr := newTracer()
				got := execute(w, seed, tr, false)
				if got.digest != want {
					t.Errorf("traced rebuild digest %s, experiments digest %s", got.digest, want)
				}
				if len(got.problems) > 0 {
					t.Errorf("identities violated: %s", strings.Join(got.problems, "; "))
				}
				if got.steps == 0 || len(tr.steps) != got.steps {
					t.Errorf("timed %d steps, tracer kept %d", got.steps, len(tr.steps))
				}
				for _, s := range tr.spans {
					if s.EndNS < s.StartNS {
						t.Errorf("span %s ends before it starts", s.Name)
					}
				}
			})
		}
	}
}

// TestSetupOnlyReleasesGoroutines checks that a set-up-only run, which
// spawns every task but never steps the runner, lets all of them exit.
func TestSetupOnlyReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, w := range workloads {
		o := execute(w, 1, nil, true)
		if o.setup <= 0 || len(o.problems) > 0 {
			t.Errorf("%s: setup %v, problems %v", w.name, o.setup, o.problems)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines left after set-up-only runs, baseline %d", n, base)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100 - i)
	}
	if q := quantileDur(ds, 0.99); q != 99 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantileDur(ds, 0.5); q != 50 {
		t.Errorf("p50 = %v", q)
	}
}
