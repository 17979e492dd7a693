package cc

import (
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Vegas implements TCP Vegas (Brakmo et al., SIGCOMM 1994): it estimates
// the number of its own packets queued at the bottleneck as
// diff = cwnd * (RTT - baseRTT) / RTT and holds diff between alpha and
// beta packets. It is one of the paper's delay-controlling algorithms and
// its canonical example of a scheme that starves against loss-based cross
// traffic.
type Vegas struct {
	common
	cwnd  float64
	alpha float64 // packets
	beta  float64 // packets

	inSlowStart bool
	lastAdjust  sim.Time
	mean        rttMean
}

// NewVegas returns a Vegas controller with the classic alpha=2, beta=4.
func NewVegas() *Vegas { return &Vegas{alpha: 2, beta: 4} }

// Init sets a small initial window.
func (v *Vegas) Init(env *transport.Env) {
	v.init(env)
	v.cwnd = 4 * v.mss
	v.inSlowStart = true
}

// OnAck applies the once-per-RTT Vegas adjustment.
func (v *Vegas) OnAck(a transport.AckInfo) {
	v.clock.See(a.RTT)
	v.mean.add(a.RTT)
	if !v.clock.Every(&v.lastAdjust, v.now()) {
		return
	}
	avgRTT, minRTT := v.mean.take(), v.clock.Min()
	if avgRTT <= 0 || minRTT <= 0 {
		return
	}
	// diff in packets: cwnd*(RTT-baseRTT)/RTT / mss
	diff := v.cwnd * float64(avgRTT-minRTT) / float64(avgRTT) / v.mss
	if v.inSlowStart {
		if diff > 1 {
			v.inSlowStart = false
		} else {
			// Double every other RTT: +50% per RTT approximates it.
			v.cwnd += v.cwnd / 2
			return
		}
	}
	switch {
	case diff < v.alpha:
		v.cwnd += v.mss
	case diff > v.beta:
		v.cwnd -= v.mss
	}
	v.cwnd = clampWindow(v.cwnd, 2*v.mss, 0)
}

// OnLoss halves the window (Vegas falls back to Reno behaviour on loss).
func (v *Vegas) OnLoss(l transport.LossInfo) {
	if !v.clock.Congestion(l) {
		return
	}
	if l.Timeout {
		v.cwnd = 2 * v.mss
		v.inSlowStart = true
		return
	}
	v.cwnd = clampWindow(v.cwnd/2, 2*v.mss, 0)
	v.inSlowStart = false
}

// Control returns the window; Vegas is ACK-clocked.
func (v *Vegas) Control() transport.Transmission {
	return transport.Transmission{CwndBytes: int(v.cwnd)}
}

// Cwnd exposes the window in bytes.
func (v *Vegas) Cwnd() float64 { return v.cwnd }

// SetCwnd forces the window (used by Nimbus at mode switches).
func (v *Vegas) SetCwnd(w float64) {
	v.cwnd = clampWindow(w, 2*v.mss, 0)
	v.inSlowStart = false
}
