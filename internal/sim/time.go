// Package sim provides a deterministic discrete-event simulation kernel:
// a nanosecond-resolution virtual clock, an event scheduler with cancellable
// timers, and a seeded random source. Every experiment in this repository
// runs on top of this kernel, which makes runs exactly reproducible for a
// given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulated clocks
// never consult the wall clock.
type Time int64

// Convenient durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with millisecond precision, e.g. "12.340s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts a number of seconds to a Time delta.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromDuration converts a time.Duration to a Time delta.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }
