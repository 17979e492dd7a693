package cc

import "nimbus/internal/transport"

// Reno implements TCP NewReno: slow start, additive increase of one MSS
// per RTT in congestion avoidance, multiplicative decrease by half per
// loss event. It is one of the paper's TCP-competitive algorithms and the
// elastic cross-traffic generator in the robustness experiments.
type Reno struct {
	common
	cwnd     float64 // bytes
	ssthresh float64
}

// NewReno returns a NewReno controller.
func NewReno() *Reno { return &Reno{} }

// Init sets the initial window to 10 MSS (Linux default, which the paper
// uses as the elastic/inelastic boundary for trace flows).
func (r *Reno) Init(env *transport.Env) {
	r.init(env)
	r.cwnd = 10 * r.mss
	r.ssthresh = 1 << 30
}

// OnAck grows the window.
func (r *Reno) OnAck(a transport.AckInfo) {
	r.clock.See(a.RTT)
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(a.Bytes)
	} else {
		r.cwnd += r.mss * float64(a.Bytes) / r.cwnd
	}
}

// OnLoss halves the window once per loss event.
func (r *Reno) OnLoss(l transport.LossInfo) {
	if !r.clock.Congestion(l) {
		return
	}
	if l.Timeout {
		r.ssthresh = clampWindow(r.cwnd/2, 2*r.mss, 0)
		r.cwnd = r.mss
		return
	}
	r.ssthresh = clampWindow(r.cwnd/2, 2*r.mss, 0)
	r.cwnd = r.ssthresh
}

// Control returns the current window; NewReno is purely ACK-clocked.
func (r *Reno) Control() transport.Transmission {
	return transport.Transmission{CwndBytes: int(r.cwnd)}
}

// Cwnd exposes the window in bytes (for Nimbus's competitive mode and
// tests).
func (r *Reno) Cwnd() float64 { return r.cwnd }

// SetCwnd forces the window (Nimbus mode switching resets the rate).
func (r *Reno) SetCwnd(w float64) {
	r.cwnd = clampWindow(w, 2*r.mss, 0)
	r.ssthresh = r.cwnd
}
