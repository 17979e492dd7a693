package transport

import "nimbus/internal/sim"

// RTTClock is one flow's round-trip bookkeeping: the smoothed RTT (an
// EWMA with gain 1/8, RFC 6298) and the minimum RTT seen, the gate that
// passes at most once per smoothed RTT, and the congestion-event gate
// built on it. The sender, every controller and Nimbus each keep their
// own; a controller inside Nimbus sees only its active mode's ACKs.
type RTTClock struct {
	srtt, min sim.Time
	event     sim.Time // when the last congestion event began
}

// See folds one RTT sample into the smoothed and minimum RTT.
func (c *RTTClock) See(rtt sim.Time) {
	if c.srtt == 0 {
		c.srtt = rtt
	} else {
		c.srtt += (rtt - c.srtt) / 8
	}
	if c.min == 0 || rtt < c.min {
		c.min = rtt
	}
}

// SRTT returns the smoothed RTT, 0 before the first sample.
func (c *RTTClock) SRTT() sim.Time { return c.srtt }

// Min returns the minimum RTT seen, 0 before the first sample.
func (c *RTTClock) Min() sim.Time { return c.min }

// RTT returns the smoothed RTT, or 100 ms before the first sample.
func (c *RTTClock) RTT() sim.Time {
	if c.srtt == 0 {
		return 100 * sim.Millisecond
	}
	return c.srtt
}

// Every reports whether a full RTT has passed since *last and, if so,
// moves *last to now.
func (c *RTTClock) Every(last *sim.Time, now sim.Time) bool {
	if now-*last < c.RTT() {
		return false
	}
	*last = now
	return true
}

// Congestion reports whether loss l begins a new congestion event: a
// timeout always does and re-arms the gate; a dup-ACK loss does once a
// full RTT has passed since the last event began.
func (c *RTTClock) Congestion(l LossInfo) bool {
	if l.Timeout {
		c.event = l.Now
		return true
	}
	return c.Every(&c.event, l.Now)
}
