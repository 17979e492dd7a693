// Package cc implements the congestion control algorithms the paper
// evaluates: the TCP-competitive schemes (NewReno, Cubic, Compound), the
// delay-controlling schemes (Vegas, Copa's default mode), the adaptive
// baselines (Copa with its own mode switching, BBR, PCC-Vivace), and a
// fixed-window sender used in Table 1. All algorithms implement
// transport.Controller. Window arithmetic is done in float64 bytes.
package cc

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// common holds the bookkeeping every algorithm needs.
type common struct {
	env     *transport.Env
	mss     float64
	srtt    sim.Time
	minRTT  sim.Time
	lastCut sim.Time // for one-reduction-per-RTT loss events
}

func (c *common) init(env *transport.Env) {
	c.env = env
	c.mss = float64(env.MSS)
}

func (c *common) now() sim.Time { return c.env.Sch.Now() }

func (c *common) seeRTT(rtt sim.Time) {
	if c.srtt == 0 {
		c.srtt = rtt
	} else {
		c.srtt += (rtt - c.srtt) / 8
	}
	if c.minRTT == 0 || rtt < c.minRTT {
		c.minRTT = rtt
	}
}

// lossEvent reports whether this loss starts a new loss event (at most
// one congestion response per RTT).
func (c *common) lossEvent(now sim.Time) bool {
	guard := c.srtt
	if guard == 0 {
		guard = 100 * sim.Millisecond
	}
	if now-c.lastCut < guard {
		return false
	}
	c.lastCut = now
	return true
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
