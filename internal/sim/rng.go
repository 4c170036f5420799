package sim

import (
	"hash/fnv"
	"math"
)

// RNG is a small, fast, deterministic random stream (xorshift64* seeded via
// splitmix64). Every stochastic component of the simulation owns a named
// stream derived from the experiment seed, so adding a new consumer of
// randomness never perturbs the draws seen by existing components.
type RNG struct {
	state uint64
	// base is the construction-time state, kept so Stream derivation does
	// not depend on how many draws the parent has made.
	base uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a stream seeded from the given seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: splitmix64(&seed)}
	if r.state == 0 {
		r.state = 0x9e3779b97f4a7c15
	}
	r.base = r.state
	return r
}

// Stream derives an independent named sub-stream. The name is hashed so the
// mapping is stable across runs and code changes elsewhere, and derivation
// uses the parent's construction-time state — not its live state — so the
// sub-stream's contents do not depend on how many draws the parent (or any
// sibling) made first.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := r.base ^ h.Sum64()
	return NewRNG(s)
}

// NewStream derives a named stream directly from a seed, without an
// intermediate parent RNG.
func NewStream(seed uint64, name string) *RNG {
	return NewRNG(seed).Stream(name)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform deviate in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0,n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponential deviate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Jitter returns base scaled by a uniform factor in [1-f, 1+f]. It is the
// workhorse for adding bounded noise to modelled costs. f is clamped to
// [0,1]; base may be any int64 duration-like quantity.
func (r *RNG) Jitter(base int64, f float64) int64 {
	if f <= 0 {
		return base
	}
	if f > 1 {
		f = 1
	}
	scale := 1 + f*(2*r.Float64()-1)
	return int64(float64(base) * scale)
}

// LogNormal returns a deviate with the given mean and standard deviation of
// the *resulting* distribution (moment-matched log-normal). Useful for
// strictly positive, right-skewed costs such as instrumentation overhead.
func (r *RNG) LogNormal(mean, stddev float64) float64 {
	if mean <= 0 {
		return 0
	}
	if stddev <= 0 {
		return mean
	}
	return r.LogNormalDraw(LogNormalParams(mean, stddev))
}

// LogNormalParams returns the location mu and scale sigma of the normal
// underlying the log-normal moment-matched to mean and stddev (both > 0).
// Callers drawing many deviates from one distribution compute them once and
// pass them to LogNormalDraw.
func LogNormalParams(mean, stddev float64) (mu, sigma float64) {
	cv2 := (stddev / mean) * (stddev / mean)
	sigma2 := math.Log(1 + cv2)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// LogNormalDraw returns exp(mu + sigma·N(0,1)).
func (r *RNG) LogNormalDraw(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
