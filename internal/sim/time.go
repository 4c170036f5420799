// Package sim provides the deterministic discrete-event simulation engine
// that underlies the KTAU reproduction.
//
// All components of the simulated cluster — CPUs, the scheduler, interrupt
// controllers, NICs, and the KTAU measurement system itself — advance a
// single virtual clock owned by an Engine. Exactly one goroutine executes
// simulation logic at any instant (simulated processes are coroutines that
// the kernel resumes from engine callbacks and that hand control back with
// their next request), so a given configuration and seed always produces
// bit-identical results.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is unrelated to wall-clock time.
type Time int64

// Common virtual-time constants mirroring time.Duration units.
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t (a point in time) to the duration elapsed since the
// simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Microseconds reports t as floating-point microseconds since the epoch.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// String formats the time as seconds with microsecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// CyclesAt converts a virtual duration to CPU cycles at the given clock rate.
// The computation is exact for clock rates that are whole megahertz, which
// covers every platform modelled here (450 MHz Chiba nodes, 550 MHz neutron,
// 2.8 GHz neuronic).
func CyclesAt(d time.Duration, hz int64) int64 {
	mhz := hz / 1_000_000
	return int64(d) * mhz / 1000
}

// DurationOfCycles converts CPU cycles at the given clock rate back to a
// virtual duration (rounded down to the nanosecond).
func DurationOfCycles(cycles int64, hz int64) time.Duration {
	mhz := hz / 1_000_000
	if mhz <= 0 {
		return 0
	}
	return time.Duration(cycles * 1000 / mhz)
}
