// Package core implements the paper's contribution: the cross-traffic
// rate estimator (§3.1), the FFT-based elasticity detector (§3.2–3.4),
// and the Nimbus congestion-control system that mode-switches between a
// TCP-competitive and a delay-controlling algorithm (§4), including the
// pulser/watcher protocol for multiple Nimbus flows (§6).
package core

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// srRec records one acknowledged packet for paired send/receive rate
// estimation (Eq. 2 of the paper).
type srRec struct {
	sent  sim.Time
	acked sim.Time
	bytes int
}

// RateSampler measures the flow's send rate S and receive rate R over the
// same set of packets, as required by Eq. 2: S = nbytes/(s_{i+n}-s_i)
// using send timestamps, R = nbytes/(r_{i+n}-r_i) using ACK timestamps.
// Measurements are taken over roughly one RTT of packets, because sub-RTT
// measurements are confounded by burstiness (§3.4).
type RateSampler struct {
	recs stats.Queue[srRec] // oldest first
}

// Add records an acknowledged packet.
func (rs *RateSampler) Add(sent, acked sim.Time, bytes int) {
	rs.recs.Push(srRec{sent, acked, bytes})
}

// Rates returns (S, R) in bits/s over packets acknowledged within the
// last window ending at now. ok is false when there are not enough
// packets to measure (fewer than 2 or zero time spread).
func (rs *RateSampler) Rates(now, window sim.Time) (S, R float64, ok bool) {
	// Expire packets older than the window.
	cut := now - window
	for rs.recs.Len() > 0 && rs.recs.At(0).acked < cut {
		rs.recs.PopFront()
	}
	n := rs.recs.Len()
	if n < 2 {
		return 0, 0, false
	}
	first, last := *rs.recs.At(0), *rs.recs.At(n - 1)
	total := 0
	for i := range n {
		total += rs.recs.At(i).bytes
	}
	// Per Eq. 2, the bytes counted are those of the n packets spanning
	// the interval; we exclude the first packet's bytes so rate = bytes
	// delivered between the two timestamps.
	total -= first.bytes
	ds := (last.sent - first.sent).Seconds()
	dr := (last.acked - first.acked).Seconds()
	if ds <= 0 || dr <= 0 || total <= 0 {
		return 0, 0, false
	}
	return float64(total) * 8 / ds, float64(total) * 8 / dr, true
}

// EstimateZ implements Eq. 1: ẑ = µ·S/R − S, the total cross-traffic
// rate, valid while the bottleneck is busy. The result is clamped to
// [0, µ] — negative values and values above the link rate are
// measurement noise by construction.
func EstimateZ(mu, S, R float64) float64 {
	if R <= 0 || mu <= 0 {
		return 0
	}
	z := mu*S/R - S
	if z < 0 {
		z = 0
	}
	if z > mu {
		z = mu
	}
	return z
}
