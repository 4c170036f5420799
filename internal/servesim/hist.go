// Package servesim is a multi-tenant request-driven serving workload: an
// open-loop load generator (Poisson and bursty MMPP arrivals, seeded
// per-client RNG streams) drives simulated clients that fire RPCs over
// tcpsim at a fleet of server processes scheduled by internal/kernel, with
// multiple tenants competing on shared nodes. Every request's lifecycle
// timestamps (arrival, send, admission, service start, reply, completion)
// land in a deterministic histogram/percentile store, and the slowest
// requests' windows are correlated against perfmon's kernel profiles to
// attribute tail-latency excursions to softirq load, scheduling, or a
// noisy neighbor's daemon — the paper's kernel-merged-with-application view
// applied to serving traffic instead of batch MPI.
package servesim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"time"
)

// The latency histogram is log-linear, HdrHistogram-style: octaves of
// powers of two from ~1 us up, each split into 8 linear sub-buckets, giving
// a worst-case quantile error of one sub-bucket width (< 6.25% relative).
// The layout is a fixed-size array so the record path allocates nothing.
const (
	histMinShift = 10               // bucket floor: 2^10 ns ~ 1 us
	histSubBits  = 3                // sub-buckets per octave = 8
	histSub      = 1 << histSubBits //
	histOctaves  = 26               // ceiling ~ 2^36 ns ~ 69 s
	HistBuckets  = 1 + histSub*histOctaves
)

// Hist is a fixed-footprint latency histogram. The zero value is ready to
// use; Record never allocates.
type Hist struct {
	counts [HistBuckets]uint32
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a nanosecond latency to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1<<histMinShift {
		return 0 // underflow bucket: everything below ~1 us
	}
	exp := bits.Len64(uint64(ns)) - 1 // position of the leading bit, >= histMinShift
	oct := exp - histMinShift
	if oct >= histOctaves {
		return HistBuckets - 1 // clamp to the top bucket
	}
	sub := int(ns>>(uint(exp)-histSubBits)) & (histSub - 1)
	return 1 + oct*histSub + sub
}

// bucketBounds returns the [lo, hi] nanosecond range of a bucket.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1<<histMinShift - 1
	}
	oct := (i - 1) / histSub
	sub := int64((i - 1) % histSub)
	shift := uint(histMinShift - histSubBits + oct)
	lo = (histSub + sub) << shift
	return lo, lo + 1<<shift - 1
}

// Record folds one latency observation into the histogram. It is the hot
// path of the serving workload and performs no allocation.
func (h *Hist) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	if h.total == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.total++
	h.sum += ns
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Sum returns the summed latency of all observations.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the average latency (0 when empty).
func (h *Hist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.total))
}

// Min and Max return the exact extreme observations (0 when empty).
func (h *Hist) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

func (h *Hist) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the geometric midpoint
// of the bucket holding the rank, clamped to the exact observed min/max so
// the tails of small populations stay honest.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank && c > 0 {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return time.Duration(mid)
		}
	}
	return h.Max()
}

// Merge folds another histogram into this one. Merging is associative and
// commutative, so per-shard histograms combine in any grouping to the same
// result.
func (h *Hist) Merge(o *Hist) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// AppendBinary appends a canonical little-endian encoding (non-empty
// buckets as index/count pairs, then totals), used for byte-identity
// comparison between serial and parallel runs.
func (h *Hist) AppendBinary(dst []byte) []byte {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, c)
	}
	dst = binary.LittleEndian.AppendUint64(dst, h.total)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.sum))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.min))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.max))
	return dst
}

// binarySize is the length of AppendBinary's encoding.
func (h *Hist) binarySize() int {
	n := 4 * 8 // totals
	for _, c := range h.counts {
		if c != 0 {
			n += 2 * 4
		}
	}
	return n
}
