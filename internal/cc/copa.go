package cc

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// Copa implements Copa (Arun & Balakrishnan, NSDI 2018), including its
// own default/TCP-competitive mode switching, which the paper compares
// against Nimbus's elasticity detector (Figs 10, 14, 23, 24). In default
// mode Copa steers its rate toward 1/(delta * dq) where dq is the
// standing queueing delay; in competitive mode it performs AIMD on
// 1/delta, emulating loss-based TCP aggressiveness.
//
// The mode detector is Copa's: if the standing queue has not drained to
// below 10% of (RTTmax - RTTmin) within the last 5 RTTs, Copa concludes
// buffer-filling cross traffic is present and switches to competitive
// mode. The paper shows this detector fails at high inelastic load and
// against high-RTT elastic flows; reproducing those failures requires
// implementing it faithfully.
type Copa struct {
	common
	cwnd float64

	deltaDefault float64
	delta        float64

	rttMin      *stats.WindowedMin // over 10 s
	rttStanding *stats.WindowedMin // over srtt/2
	rttMax      *stats.WindowedMax // over 10 s

	velocity   float64
	direction  int // +1 up, -1 down, 0 unknown
	dirCount   int
	lastVelUpd sim.Time
	prevCwnd   float64

	// Mode switching state.
	ModeSwitchingEnabled bool
	competitive          bool
	lastDrain            sim.Time // last time dq was "nearly empty"
	lossInRTT            bool
	lastDeltaUpd         sim.Time

	// DefaultModeOnly pins Copa to default mode (used as Nimbus's
	// delay-control algorithm).
	DefaultModeOnly bool
}

// NewCopa returns Copa with mode switching enabled (the full baseline).
func NewCopa() *Copa {
	return &Copa{deltaDefault: 0.5, ModeSwitchingEnabled: true}
}

// NewCopaDefaultMode returns Copa pinned to its default (delay-control)
// mode, the configuration Nimbus uses as a delay-controlling algorithm.
func NewCopaDefaultMode() *Copa {
	return &Copa{deltaDefault: 0.5, DefaultModeOnly: true}
}

// Init sets up the filters.
func (c *Copa) Init(env *transport.Env) {
	c.init(env)
	c.cwnd = 10 * c.mss
	c.delta = c.deltaDefault
	c.velocity = 1
	c.rttMin = stats.NewWindowedMin(int64(10 * sim.Second))
	c.rttStanding = stats.NewWindowedMin(int64(100 * sim.Millisecond))
	c.rttMax = stats.NewWindowedMax(int64(10 * sim.Second))
}

// OnAck applies Copa's per-ACK window update.
func (c *Copa) OnAck(a transport.AckInfo) {
	c.seeRTT(a.RTT)
	now := c.now()
	c.rttMin.Add(int64(now), float64(a.RTT))
	c.rttMax.Add(int64(now), float64(a.RTT))
	// Standing RTT: min over the last srtt/2.
	half := c.srtt / 2
	if half < 10*sim.Millisecond {
		half = 10 * sim.Millisecond
	}
	c.rttStanding.Window = int64(half)
	c.rttStanding.Add(int64(now), float64(a.RTT))

	rttMin := sim.Time(c.rttMin.Min())
	standing := sim.Time(c.rttStanding.Min())
	dq := standing - rttMin

	c.updateMode(now, dq)
	c.updateDelta(now)

	// Target rate 1/(delta*dq) packets/s vs current rate cwnd/standing.
	cwndPkts := c.cwnd / c.mss
	var up bool
	if dq <= 0 {
		up = true
	} else {
		target := 1 / (c.delta * dq.Seconds())   // packets per second
		current := cwndPkts / standing.Seconds() // packets per second
		up = current <= target
	}
	c.updateVelocity(now, up)
	step := c.velocity / (c.delta * cwndPkts) * float64(a.Bytes) / c.mss * c.mss
	if up {
		c.cwnd += step
	} else {
		c.cwnd -= step
	}
	c.cwnd = clampWindow(c.cwnd, 2*c.mss, 0)
}

func (c *Copa) updateVelocity(now sim.Time, up bool) {
	dir := -1
	if up {
		dir = 1
	}
	guard := c.srtt
	if guard == 0 {
		guard = 100 * sim.Millisecond
	}
	if now-c.lastVelUpd < guard {
		return
	}
	c.lastVelUpd = now
	if dir == c.direction {
		c.dirCount++
		// Velocity doubles only after the same direction persists for
		// 3 RTTs, then keeps doubling each RTT.
		if c.dirCount >= 3 {
			c.velocity *= 2
		}
	} else {
		c.direction = dir
		c.dirCount = 0
		c.velocity = 1
	}
	if c.velocity > 1<<16 {
		c.velocity = 1 << 16
	}
	// If cwnd did not actually move in the indicated direction, reset.
	if (dir > 0 && c.cwnd < c.prevCwnd) || (dir < 0 && c.cwnd > c.prevCwnd) {
		c.velocity = 1
		c.dirCount = 0
	}
	c.prevCwnd = c.cwnd
}

// updateMode runs Copa's queue-drain detector.
func (c *Copa) updateMode(now sim.Time, dq sim.Time) {
	if c.DefaultModeOnly || !c.ModeSwitchingEnabled {
		c.competitive = false
		return
	}
	rttMin := sim.Time(c.rttMin.Min())
	rttMax := sim.Time(c.rttMax.Max())
	spread := rttMax - rttMin
	if spread < sim.Millisecond {
		spread = sim.Millisecond
	}
	if dq < spread/10 {
		c.lastDrain = now
	}
	guard := c.srtt
	if guard == 0 {
		guard = 100 * sim.Millisecond
	}
	c.competitive = now-c.lastDrain > 5*guard
	if !c.competitive {
		c.delta = c.deltaDefault
	}
}

// updateDelta performs AIMD on 1/delta while in competitive mode.
func (c *Copa) updateDelta(now sim.Time) {
	if !c.competitive {
		return
	}
	guard := c.srtt
	if guard == 0 {
		guard = 100 * sim.Millisecond
	}
	if now-c.lastDeltaUpd < guard {
		return
	}
	c.lastDeltaUpd = now
	if c.lossInRTT {
		c.delta *= 2 // halve 1/delta
		c.lossInRTT = false
	} else {
		c.delta = 1 / (1/c.delta + 1) // additive increase of 1/delta
	}
	if c.delta > c.deltaDefault {
		c.delta = c.deltaDefault
	}
	if c.delta < 0.004 {
		c.delta = 0.004
	}
}

// OnLoss marks the loss for competitive-mode AIMD and applies a window
// cut in default mode only for heavy loss (Copa mostly ignores isolated
// losses).
func (c *Copa) OnLoss(l transport.LossInfo) {
	c.lossInRTT = true
	if l.Timeout {
		c.cwnd = 2 * c.mss
		c.velocity = 1
		return
	}
	if c.competitive && c.lossEvent(l.Now) {
		c.cwnd = clampWindow(c.cwnd/2, 2*c.mss, 0)
	}
}

// Control paces at 2x the window rate to smooth transmission, per Copa.
func (c *Copa) Control() transport.Transmission {
	standing := sim.Time(c.rttStanding.Min())
	if standing <= 0 {
		standing = c.srtt
	}
	var pace float64
	if standing > 0 {
		pace = 2 * c.cwnd * 8 / standing.Seconds()
	}
	return transport.Transmission{CwndBytes: int(c.cwnd), PaceBps: pace}
}

// Competitive reports whether Copa's own detector is in competitive mode
// (ground truth for the Fig 14 accuracy comparison).
func (c *Copa) Competitive() bool { return c.competitive }

// Cwnd exposes the window in bytes.
func (c *Copa) Cwnd() float64 { return c.cwnd }

// SetCwnd forces the window (used by Nimbus at mode switches).
func (c *Copa) SetCwnd(w float64) {
	c.cwnd = clampWindow(w, 2*c.mss, 0)
	c.velocity = 1
	c.dirCount = 0
}
