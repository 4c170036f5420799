package servesim

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"ktau/internal/sim"
)

// relErr returns |got-want|/want.
func relErr(got, want time.Duration) float64 {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// The histogram's design bound: one sub-bucket (1/16 of the value at 8
// sub-buckets per octave), plus a little slack for midpoint rounding.
const histTolerance = 0.07

func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		lo, hi := bucketBounds(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want %d", lo, got, i)
		}
		if i < HistBuckets-1 {
			if got := bucketOf(hi); got != i {
				t.Fatalf("bucketOf(hi=%d) = %d, want %d", hi, got, i)
			}
		}
		if i > 0 {
			prevLo, prevHi := bucketBounds(i - 1)
			if lo != prevHi+1 {
				t.Fatalf("bucket %d starts at %d, previous [%d,%d] not contiguous", i, lo, prevLo, prevHi)
			}
		}
	}
}

// exactQuantile computes the q-quantile of a sorted sample the same way the
// histogram defines it: the ceil(q*n)-th smallest observation.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	rank := int(float64(n)*q + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func checkQuantiles(t *testing.T, name string, h *Hist, sorted []time.Duration) {
	t.Helper()
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		want := exactQuantile(sorted, q)
		got := h.Quantile(q)
		if err := relErr(got, want); err > histTolerance {
			t.Errorf("%s p%g: estimate %v vs exact %v (err %.3f > %.3f)",
				name, q*100, got, want, err, histTolerance)
		}
	}
}

func TestQuantileUniform(t *testing.T) {
	var h Hist
	var vals []time.Duration
	for i := 1; i <= 10_000; i++ {
		v := time.Duration(i) * 10 * time.Microsecond
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	checkQuantiles(t, "uniform", &h, vals)
	if h.Min() != 10*time.Microsecond || h.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestQuantileExponential(t *testing.T) {
	rng := sim.NewStream(42, "hist-exp")
	var h Hist
	var vals []time.Duration
	for i := 0; i < 100_000; i++ {
		v := time.Duration(float64(2*time.Millisecond) * rng.ExpFloat64())
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	checkQuantiles(t, "exponential", &h, vals)
}

func TestQuantileLogNormal(t *testing.T) {
	rng := sim.NewStream(7, "hist-lognorm")
	var h Hist
	var vals []time.Duration
	for i := 0; i < 50_000; i++ {
		v := time.Duration(rng.LogNormal(float64(800*time.Microsecond), float64(2*time.Millisecond)))
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	checkQuantiles(t, "lognormal", &h, vals)
}

func TestQuantileSmallPopulationTailsExact(t *testing.T) {
	var h Hist
	for _, ms := range []int{1, 2, 3, 4, 900} {
		h.Record(time.Duration(ms) * time.Millisecond)
	}
	// With 5 samples, p999's rank is the max: the clamp to the observed
	// maximum must make it exact despite the wide top bucket.
	if got := h.Quantile(0.999); got != 900*time.Millisecond {
		t.Errorf("p999 of tiny population = %v, want exactly 900ms", got)
	}
}

func fillHist(seed uint64, n int, mean time.Duration) *Hist {
	rng := sim.NewStream(seed, "hist-fill")
	var h Hist
	for i := 0; i < n; i++ {
		h.Record(time.Duration(float64(mean) * rng.ExpFloat64()))
	}
	return &h
}

func TestHistMergeAssociative(t *testing.T) {
	mk := func() (a, b, c *Hist) {
		return fillHist(1, 1000, time.Millisecond),
			fillHist(2, 500, 5*time.Millisecond),
			fillHist(3, 2000, 200*time.Microsecond)
	}

	a1, b1, c1 := mk()
	left := &Hist{}
	left.Merge(a1)
	left.Merge(b1)
	left.Merge(c1) // ((a+b)+c)

	a2, b2, c2 := mk()
	bc := &Hist{}
	bc.Merge(b2)
	bc.Merge(c2)
	right := &Hist{}
	right.Merge(a2)
	right.Merge(bc) // (a+(b+c))

	if !bytes.Equal(left.AppendBinary(nil), right.AppendBinary(nil)) {
		t.Error("histogram merge is not associative")
	}
	if left.Count() != 3500 {
		t.Errorf("merged count = %d, want 3500", left.Count())
	}
}

func fillStore(seed uint64, n int) *Store {
	rng := sim.NewStream(seed, "store-fill")
	s := NewStore(2, 4, 8)
	for i := 0; i < n; i++ {
		tenant := rng.Intn(2)
		node := rng.Intn(4)
		lat := time.Duration(float64(time.Millisecond) * rng.ExpFloat64())
		arrival := sim.Time(rng.Int63n(int64(time.Second)))
		s.RecordArrival(tenant, node)
		switch rng.Intn(10) {
		case 0:
			s.RecordDrop(tenant, node)
		case 1:
			s.RecordLost(tenant, node, 1)
		default:
			s.RecordOK(TailRec{
				Tenant: tenant, Node: node, Client: i, Seq: uint64(i),
				Arrival: arrival, Done: arrival.Add(lat), Lat: lat,
			})
		}
	}
	return s
}

func TestStoreMergeAssociative(t *testing.T) {
	left := NewStore(2, 4, 8)
	left.Merge(fillStore(10, 300))
	left.Merge(fillStore(11, 200))
	left.Merge(fillStore(12, 400))

	bc := NewStore(2, 4, 8)
	bc.Merge(fillStore(11, 200))
	bc.Merge(fillStore(12, 400))
	right := NewStore(2, 4, 8)
	right.Merge(fillStore(10, 300))
	right.Merge(bc)

	if !bytes.Equal(left.AppendBinary(nil), right.AppendBinary(nil)) {
		t.Error("store merge is not associative")
	}
}

func TestStoreTailsOrderedAndBounded(t *testing.T) {
	s := fillStore(99, 2000)
	for tenant := 0; tenant < 2; tenant++ {
		filled := false
		for node := 0; node < s.Nodes; node++ {
			tails := s.Tails(tenant, node)
			if len(tails) > s.TailK {
				t.Fatalf("tenant %d node %d: %d tails, want at most %d", tenant, node, len(tails), s.TailK)
			}
			for i := 1; i < len(tails); i++ {
				if tails[i].Lat > tails[i-1].Lat {
					t.Fatalf("tenant %d node %d: tails out of order at %d: %v after %v",
						tenant, node, i, tails[i].Lat, tails[i-1].Lat)
				}
			}
			filled = filled || len(tails) > 0
		}
		if !filled {
			t.Fatalf("tenant %d: no cell holds a tail record", tenant)
		}
	}
}

func TestRecordPathDoesNotAllocate(t *testing.T) {
	s := NewStore(2, 4, 32)
	rec := TailRec{Tenant: 1, Node: 2, Lat: 3 * time.Millisecond}
	// Warm the tail list to capacity so inserts are pure shifts.
	for i := 0; i < 100; i++ {
		rec.Seq = uint64(i)
		rec.Lat = time.Duration(i+1) * time.Millisecond
		s.RecordOK(rec)
	}
	n := testing.AllocsPerRun(1000, func() {
		rec.Seq++
		rec.Lat = (rec.Lat + time.Millisecond) % (50 * time.Millisecond)
		s.RecordArrival(1, 2)
		s.RecordOK(rec)
	})
	if n != 0 {
		t.Errorf("record path allocates %.1f allocs/op, want 0", n)
	}
}
