// Package cc implements the congestion control algorithms the paper
// evaluates: the TCP-competitive schemes (NewReno, Cubic, Compound), the
// delay-controlling schemes (Vegas, Copa's default mode), the adaptive
// baselines (Copa with its own mode switching, BBR, PCC-Vivace), and a
// fixed-window sender used in Table 1. All algorithms implement
// transport.Controller. Window arithmetic is done in float64 bytes. Each
// controller keeps its round-trip state in its own transport.RTTClock:
// the smoothed and minimum RTT, the 100 ms stand-in before the first
// sample, the once-per-RTT gate and the congestion-event gate that allows
// one window cut per RTT.
package cc

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// common holds the bookkeeping every algorithm needs.
type common struct {
	env   *transport.Env
	mss   float64
	clock transport.RTTClock
}

func (c *common) init(env *transport.Env) {
	c.env = env
	c.mss = float64(env.MSS)
}

func (c *common) now() sim.Time { return c.env.Sch.Now() }

// rttMean averages the RTT samples added since it was last taken.
type rttMean struct {
	sum sim.Time
	n   int
}

func (m *rttMean) add(rtt sim.Time) { m.sum += rtt; m.n++ }

// take returns the mean and starts a new one; it needs a sample.
func (m *rttMean) take() sim.Time {
	avg := m.sum / sim.Time(m.n)
	*m = rttMean{}
	return avg
}

func clampWindow(w, min, max float64) float64 {
	if w < min {
		return min
	}
	if max > 0 && w > max {
		return max
	}
	return w
}

// RateEstimator measures the flow's delivery rate (bits/s) from the
// cumulative Delivered counter in AckInfo, over a sliding window. BBR and
// Vivace use it; Nimbus has its own paired S/R estimator in core.
type RateEstimator struct {
	window  sim.Time
	samples stats.Queue[rateSample] // the samples inside the window, oldest first
}

type rateSample struct {
	t         sim.Time
	delivered uint64
}

// NewRateEstimator returns an estimator over the given window.
func NewRateEstimator(window sim.Time) *RateEstimator {
	return &RateEstimator{window: window}
}

// Add records the cumulative delivered byte count at time t.
func (r *RateEstimator) Add(t sim.Time, delivered uint64) {
	r.samples.Push(rateSample{t, delivered})
	cut := t - r.window
	for r.samples.Len() > 1 && r.samples.At(0).t < cut {
		r.samples.PopFront()
	}
}

// RateBps returns the delivery rate in bits/s over the window (0 if not
// enough data).
func (r *RateEstimator) RateBps() float64 {
	n := r.samples.Len()
	if n < 2 {
		return 0
	}
	first, last := *r.samples.At(0), *r.samples.At(n - 1)
	dt := (last.t - first.t).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(last.delivered-first.delivered) * 8 / dt
}
