package netem

import (
	"math"

	"nimbus/internal/sim"
)

// CoDel implements the Controlled Delay AQM (RFC 8289). The paper's AQM
// experiments use PIE; CoDel is provided as an additional discipline for
// robustness sweeps beyond the paper. Drops happen at dequeue when the
// sojourn time has stayed above Target for at least Interval.
type CoDel struct {
	Target   sim.Time
	Interval sim.Time
	Capacity int

	q fifo

	firstAbove sim.Time // when sojourn first exceeded Target plus Interval
	dropping   bool
	dropNext   sim.Time
	count      int
	Drops      uint64
}

// NewCoDel returns a CoDel queue with the standard 5 ms / 100 ms knobs.
func NewCoDel(capacityBytes int) *CoDel {
	return &CoDel{
		Target:   5 * sim.Millisecond,
		Interval: 100 * sim.Millisecond,
		Capacity: capacityBytes,
	}
}

// Enqueue applies only the hard byte capacity; CoDel drops at dequeue.
func (c *CoDel) Enqueue(p *Packet, now sim.Time) bool {
	if c.q.queued()+p.Size > c.Capacity {
		c.Drops++
		return false
	}
	p.EnqueuedAt = now
	c.q.push(p)
	return true
}

func (c *CoDel) controlLaw(t sim.Time) sim.Time {
	return t + sim.Time(float64(c.Interval)/math.Sqrt(float64(c.count)))
}

// doDequeue pops one packet and reports whether the drop state should
// advance (sojourn continuously above Target for at least Interval).
func (c *CoDel) doDequeue(now sim.Time) (p *Packet, okToDrop bool) {
	p = c.q.pop()
	if p == nil {
		c.firstAbove = 0
		return nil, false
	}
	// The control law acts on this hop's sojourn time; the packet's
	// QueueDelay accumulates it into the route total, like DropTail.
	sojourn := now - p.EnqueuedAt
	p.QueueDelay += sojourn
	if sojourn < c.Target || c.q.queued() <= DefaultMSS {
		c.firstAbove = 0
		return p, false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.Interval
		return p, false
	}
	return p, now >= c.firstAbove
}

// Dequeue implements the RFC 8289 state machine.
func (c *CoDel) Dequeue(now sim.Time) *Packet {
	p, okToDrop := c.doDequeue(now)
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return p
		}
		for now >= c.dropNext && c.dropping {
			c.Drops++
			c.count++
			p, okToDrop = c.doDequeue(now)
			if p == nil {
				c.dropping = false
				return nil
			}
			if !okToDrop {
				c.dropping = false
				return p
			}
			c.dropNext = c.controlLaw(c.dropNext)
		}
		return p
	}
	if okToDrop {
		// Enter dropping state: drop this packet, deliver the next.
		c.Drops++
		c.dropping = true
		if c.count > 2 && now-c.dropNext < 8*c.Interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
		p2, _ := c.doDequeue(now)
		if p2 == nil {
			c.dropping = false
			return nil
		}
		return p2
	}
	return p
}

// BytesQueued returns occupancy in bytes.
func (c *CoDel) BytesQueued() int { return c.q.queued() }

// Len returns the number of queued packets.
func (c *CoDel) Len() int { return c.q.len() }

// DropCount returns the total drops (control-law dequeue drops plus
// hard-cap refusals).
func (c *CoDel) DropCount() uint64 { return c.Drops }
