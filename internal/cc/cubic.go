package cc

import (
	"math"

	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Cubic parameters from RFC 8312.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// Cubic implements TCP Cubic (RFC 8312): the window grows as a cubic
// function of time since the last loss event, with the TCP-friendly
// region and fast convergence. It is the paper's primary TCP-competitive
// algorithm and its main elastic cross-traffic source.
type Cubic struct {
	common
	cwnd     float64 // bytes
	ssthresh float64

	wMax       float64  // window before last reduction (bytes)
	epochStart sim.Time // start of current cubic epoch
	k          float64  // seconds until the plateau
	wEst       float64  // TCP-friendly (Reno-equivalent) window estimate
}

// NewCubic returns a Cubic controller.
func NewCubic() *Cubic { return &Cubic{} }

// Init sets the initial window to 10 MSS.
func (c *Cubic) Init(env *transport.Env) {
	c.init(env)
	c.cwnd = 10 * c.mss
	c.ssthresh = 1 << 30
}

// OnAck grows the window per RFC 8312.
func (c *Cubic) OnAck(a transport.AckInfo) {
	c.clock.See(a.RTT)
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(a.Bytes)
		return
	}
	now := c.now()
	if c.epochStart == 0 {
		c.epochStart = now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / c.mss / cubicC)
		} else {
			c.k = 0
			c.wMax = c.cwnd
		}
		c.wEst = c.cwnd
	}
	t := (now - c.epochStart).Seconds()
	// Cubic target window (in bytes) at time t since the epoch started.
	wCubic := (cubicC*math.Pow(t-c.k, 3) + c.wMax/c.mss) * c.mss

	// TCP-friendly region: emulate Reno's growth rate.
	c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) * (float64(a.Bytes) * c.mss / c.cwnd)

	target := wCubic
	if c.wEst > target {
		target = c.wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd * float64(a.Bytes)
	} else {
		// Slow drift toward the target to avoid stalls.
		c.cwnd += c.mss * float64(a.Bytes) / (100 * c.cwnd)
	}
}

// OnLoss applies the multiplicative decrease with fast convergence.
func (c *Cubic) OnLoss(l transport.LossInfo) {
	if !c.clock.Congestion(l) {
		return
	}
	if l.Timeout {
		c.ssthresh = clampWindow(c.cwnd*cubicBeta, 2*c.mss, 0)
		c.cwnd = c.mss
		c.epochStart = 0
		return
	}
	// Fast convergence: release bandwidth faster when the window is
	// still below the previous maximum.
	if c.cwnd < c.wMax {
		c.wMax = c.cwnd * (1 + cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd = clampWindow(c.cwnd*cubicBeta, 2*c.mss, 0)
	c.ssthresh = c.cwnd
	c.epochStart = 0
}

// Control returns the window; Cubic is ACK-clocked.
func (c *Cubic) Control() transport.Transmission {
	return transport.Transmission{CwndBytes: int(c.cwnd)}
}

// Cwnd exposes the window in bytes.
func (c *Cubic) Cwnd() float64 { return c.cwnd }

// SetCwnd forces the window and restarts the cubic epoch (used by Nimbus
// when switching to TCP-competitive mode).
func (c *Cubic) SetCwnd(w float64) {
	c.cwnd = clampWindow(w, 2*c.mss, 0)
	c.ssthresh = c.cwnd
	c.wMax = c.cwnd
	c.epochStart = 0
}
