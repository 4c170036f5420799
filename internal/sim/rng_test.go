package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicStreams(t *testing.T) {
	a := NewStream(42, "sched")
	b := NewStream(42, "sched")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name streams diverged")
		}
	}
}

func TestRNGNamedStreamsIndependent(t *testing.T) {
	a := NewStream(42, "sched")
	b := NewStream(42, "net")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently named streams collide too often: %d/100", same)
	}
}

func TestRNGStreamIndependentOfDrawPosition(t *testing.T) {
	// Regression: Stream used to derive from the parent's *live* state, so
	// drawing from the parent before deriving changed the child sequence.
	a := NewRNG(42)
	s := a.Stream("x")
	want := make([]uint64, 16)
	for i := range want {
		want[i] = s.Uint64()
	}
	b := NewRNG(42)
	for i := 0; i < 7; i++ {
		b.Uint64()
	}
	s2 := b.Stream("x")
	for i := range want {
		if got := s2.Uint64(); got != want[i] {
			t.Fatalf("draw %d: stream derived after parent draws diverged (%d != %d)", i, got, want[i])
		}
	}
	// Deriving must also not perturb the parent.
	c := NewRNG(42)
	d := NewRNG(42)
	c.Stream("anything")
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Stream derivation perturbed the parent sequence")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) over 1000 draws hit only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.03 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(4)
	n := 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGLogNormalMoments(t *testing.T) {
	r := NewRNG(5)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormal(244.4, 236.3)
	}
	mean := sum / float64(n)
	if math.Abs(mean-244.4)/244.4 > 0.05 {
		t.Errorf("lognormal mean = %v, want ~244.4", mean)
	}
	// Degenerate parameters.
	if r.LogNormal(0, 10) != 0 {
		t.Error("LogNormal with mean<=0 must be 0")
	}
	if r.LogNormal(50, 0) != 50 {
		t.Error("LogNormal with stddev<=0 must be the mean")
	}
}

// logNormalRef is LogNormal's body from before it was split into
// LogNormalParams and LogNormalDraw, kept as the reference the split must
// reproduce bit for bit.
func logNormalRef(r *RNG, mean, stddev float64) float64 {
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}

// TestRNGLogNormalSplitBitIdentical requires LogNormal, and LogNormalDraw with
// parameters computed once, to return exactly the reference's bits over 10⁵
// seeded draws: for the KTAU Table 4 start and stop costs (the pairs
// ktau.DefaultOverheadModel draws from) and for std ≪ mean and std ≫ mean.
func TestRNGLogNormalSplitBitIdentical(t *testing.T) {
	for _, p := range []struct {
		name      string
		mean, std float64
	}{
		{"table4-start", 244.4, 236.3},
		{"table4-stop", 295.3, 268.8},
		{"std<<mean", 1e4, 1e-2},
		{"std>>mean", 10, 1e4},
	} {
		ref, once, hoisted := NewStream(11, p.name), NewStream(11, p.name), NewStream(11, p.name)
		mu, sigma := LogNormalParams(p.mean, p.std)
		for i := 0; i < 100000; i++ {
			want := logNormalRef(ref, p.mean, p.std)
			if got := once.LogNormal(p.mean, p.std); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s draw %d: LogNormal = %v, want %v", p.name, i, got, want)
			}
			if got := hoisted.LogNormalDraw(mu, sigma); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s draw %d: LogNormalDraw = %v, want %v", p.name, i, got, want)
			}
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(6)
	f := func(base uint32) bool {
		b := int64(base)
		v := r.Jitter(b, 0.1)
		lo := int64(float64(b) * 0.89)
		hi := int64(float64(b)*1.11) + 1
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if r.Jitter(1000, 0) != 1000 {
		t.Error("zero jitter must be identity")
	}
}

func TestRNGJitterClampsFraction(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Jitter(1000, 5.0); v < 0 || v > 2001 {
			t.Fatalf("jitter with clamped f out of [0,2b]: %d", v)
		}
	}
}
