package cc

import (
	"math"

	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Compound implements Compound TCP (Tan et al., INFOCOM 2006): the
// congestion window is the sum of a loss-based component (Reno-like cwnd)
// and a delay-based component (dwnd) that grows aggressively when the
// queue is empty and retreats as queueing builds. The paper uses Compound
// to show that summing the two windows (instead of switching modes)
// inherits the high queueing delay of the loss-based part (Fig 8).
type Compound struct {
	common
	cwnd float64 // loss-based component, bytes
	dwnd float64 // delay-based component, bytes

	ssthresh float64
	alpha    float64
	beta     float64
	eta      float64
	k        float64
	gamma    float64 // packets of self-inflicted queueing allowed
	lastDwnd sim.Time
	mean     rttMean
}

// NewCompound returns a Compound TCP controller with the published
// parameters (alpha=1/8, beta=1/2, k=3/4, gamma=30).
func NewCompound() *Compound {
	return &Compound{alpha: 0.125, beta: 0.5, eta: 1, k: 0.75, gamma: 30}
}

// Init sets the initial windows.
func (c *Compound) Init(env *transport.Env) {
	c.init(env)
	c.cwnd = 10 * c.mss
	c.dwnd = 0
	c.ssthresh = 1 << 30
}

func (c *Compound) win() float64 { return c.cwnd + c.dwnd }

// OnAck grows cwnd like Reno and adjusts dwnd once per RTT.
func (c *Compound) OnAck(a transport.AckInfo) {
	c.clock.See(a.RTT)
	c.mean.add(a.RTT)
	if c.win() < c.ssthresh {
		c.cwnd += float64(a.Bytes)
	} else {
		c.cwnd += c.mss * float64(a.Bytes) / c.win()
	}
	minRTT := c.clock.Min()
	if minRTT <= 0 || !c.clock.Every(&c.lastDwnd, c.now()) {
		return
	}
	avgRTT := c.mean.take()
	// diff: estimated self-queued packets.
	diff := c.win() * float64(avgRTT-minRTT) / float64(avgRTT) / c.mss
	winPkts := c.win() / c.mss
	if diff < c.gamma {
		// Aggressive growth: dwnd += alpha*win^k - 1 (packets).
		inc := c.alpha*math.Pow(winPkts, c.k) - 1
		if inc < 0 {
			inc = 0
		}
		c.dwnd += inc * c.mss
	} else {
		dec := c.eta * diff
		c.dwnd -= dec * c.mss
	}
	if c.dwnd < 0 {
		c.dwnd = 0
	}
}

// OnLoss halves the total window, splitting the reduction per CTCP.
func (c *Compound) OnLoss(l transport.LossInfo) {
	if !c.clock.Congestion(l) {
		return
	}
	if l.Timeout {
		c.ssthresh = clampWindow(c.win()/2, 2*c.mss, 0)
		c.cwnd = c.mss
		c.dwnd = 0
		return
	}
	w := c.win()
	c.cwnd = clampWindow(c.cwnd/2, 2*c.mss, 0)
	c.dwnd = math.Max(0, w*(1-c.beta)-c.cwnd)
	c.ssthresh = clampWindow(w*(1-c.beta), 2*c.mss, 0)
}

// Control returns the combined window; Compound is ACK-clocked.
func (c *Compound) Control() transport.Transmission {
	return transport.Transmission{CwndBytes: int(c.win())}
}
