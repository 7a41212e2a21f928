// Package sim provides a deterministic discrete-event simulation engine.
//
// Components schedule closures at future simulated times on a single
// Engine. Events at equal times fire in scheduling order (each pending
// time keeps its events in a FIFO), so a run is bit-reproducible
// for a given input, which the experiment harness relies on for the
// pseudo-random perturbation methodology of Alameldeen & Wood.
package sim

import "fmt"

// Time is simulated time in picoseconds. Picosecond resolution lets the
// engine express both the 0.5 ns processor cycle of the paper's 2 GHz
// cores and the integer-nanosecond structural latencies of Table 3.
type Time int64

// Common units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// NS returns n nanoseconds as a Time.
func NS(n int64) Time { return Time(n) * Nanosecond }

// PS returns n picoseconds as a Time.
func PS(n int64) Time { return Time(n) * Picosecond }

// Nanoseconds reports t in (possibly fractional, truncated) nanoseconds.
func (t Time) Nanoseconds() int64 { return int64(t / Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
