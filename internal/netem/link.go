package netem

import "nimbus/internal/sim"

// Link models the bottleneck: it drains its Queue at the capacity its
// RateSchedule prescribes and hands completed packets to Deliver. It also
// keeps the counters the experiments report (delivered bytes, drops, busy
// time for utilization).
//
// Every link, constant-rate or not, sends a packet the same way: it
// tracks the packet's remaining bits and arms one owned completion timer
// at the current rate. Rate changes are applied as scheduler events: the
// link registers one event per schedule transition (none for a constant
// schedule), and a packet in flight across a transition finishes exactly
// when the integral of the rate over its transmission interval reaches
// its size — serialization, busy-time, and utilization accounting stay
// exact across transitions.
type Link struct {
	Sch *sim.Scheduler
	// Name labels the link as a hop of a topology ("bn", "access", ...).
	Name string
	// Schedule is the capacity signal. Immutable after construction.
	Schedule *RateSchedule
	Q        Queue

	// Deliver is called when a packet finishes transmission.
	Deliver func(p *Packet, now sim.Time)
	// OnDrop, if set, is called for packets rejected by the queue.
	OnDrop func(p *Packet, now sim.Time)

	rateBps float64 // current drain rate

	busy bool
	// In-flight transmission state: the link serializes one packet at a
	// time, so a single slot, one owned completion timer re-armed per
	// packet and a reusable completion callback avoid any allocation per
	// packet on the hottest path in the simulator. txBitsLeft is what
	// remains of txPkt (plus any fluid ahead of it) as of txUpdated; a
	// rate change mid-packet settles it and re-arms the timer.
	txPkt      *Packet
	txTimer    *sim.Timer
	txDone     func()
	txBitsLeft float64
	txUpdated  sim.Time
	rateChange func()

	// enterFn is the topology's prebound entry callback ("send the event's
	// packet on this link"): one per link, so packets cross the delay
	// lines into it with no per-packet closures.
	enterFn func(arg any)

	// Fluid cross-traffic term (EnableFluid, see fluid.go): an aggregate
	// background load integrated analytically between rate changes
	// instead of simulated per packet. fluidBacklog is the standing
	// fluid bytes sharing the buffer with foreground packets.
	fluidOn        bool
	fluidCap       int
	fluidBps       float64
	fluidBacklog   float64
	fluidSettled   sim.Time
	fluidDelivered float64
	fluidDropped   float64

	DeliveredPackets uint64
	DeliveredBytes   uint64
	DroppedPackets   uint64
	busyTime         sim.Time
	lastStart        sim.Time
	qdelaySum        sim.Time
	dequeues         uint64
}

// NewLink returns a constant-rate link draining q at rateBps.
func NewLink(sch *sim.Scheduler, rateBps float64, q Queue) *Link {
	return NewLinkSchedule(sch, ConstantRate(rateBps), q)
}

// NewLinkSchedule returns a link whose capacity follows the schedule.
func NewLinkSchedule(sch *sim.Scheduler, schedule *RateSchedule, q Queue) *Link {
	l := &Link{
		Sch:      sch,
		Schedule: schedule,
		Q:        q,
		rateBps:  schedule.RateAt(sch.Now()),
	}
	l.txDone = l.finishTx
	l.rateChange = l.applyRateChange
	if next, ok := schedule.NextChange(sch.Now()); ok {
		sch.AtFunc(next, l.rateChange)
	}
	return l
}

// Rate returns the link's current drain rate in bits/s.
func (l *Link) Rate() float64 { return l.rateBps }

// Varying reports whether the link's capacity changes over time.
func (l *Link) Varying() bool { return !l.Schedule.Constant() }

// Send enqueues p, starting transmission if the link is idle.
func (l *Link) Send(p *Packet) {
	now := l.Sch.Now()
	if l.fluidOn {
		// Settle so the queue's admission check sees the current fluid
		// backlog, not a stale one, then stamp the packet's FIFO
		// position relative to the fluid process (flushFluidAhead).
		l.settleFluid(now)
		p.fluidMark = l.fluidDelivered + l.fluidBacklog
	}
	if !l.Q.Enqueue(p, now) {
		l.DroppedPackets++
		if l.OnDrop != nil {
			l.OnDrop(p, now)
		}
		return
	}
	if !l.busy {
		l.startNext()
	}
}

func (l *Link) startNext() {
	now := l.Sch.Now()
	if l.fluidOn {
		// Settle before the dequeue: the interval just ended still had
		// the head packet in the buffer, so backlog capping sees it.
		l.settleFluid(now)
	}
	p := l.Q.Dequeue(now)
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.lastStart = now
	l.qdelaySum += now - p.EnqueuedAt
	l.dequeues++
	l.txPkt = p
	l.txBitsLeft = float64(p.Size) * 8
	if l.fluidOn {
		// Fold the standing backlog into the in-flight bits: the exact
		// piecewise-rate integration then drains fluid and packet
		// together across any schedule transitions.
		l.txBitsLeft += l.flushFluidAhead(p)
	}
	l.txUpdated = now
	l.armTx()
}

// armTx schedules the in-flight packet's completion at the current rate.
// At rate zero (an outage) no completion is scheduled; the pending rate
// change event re-arms when capacity returns. Rearm recycles the one
// completion-timer struct, so a link allocates nothing per packet.
func (l *Link) armTx() {
	if l.rateBps <= 0 {
		return
	}
	at := l.Sch.Now() + sim.FromSeconds(l.txBitsLeft/l.rateBps)
	l.txTimer = l.Sch.Rearm(l.txTimer, at, l.txDone)
}

// applyRateChange is the scheduler event at every schedule transition: it
// settles the in-flight packet's drained bits at the old rate, switches
// to the new rate, reschedules the packet's completion, and registers the
// next transition.
func (l *Link) applyRateChange() {
	now := l.Sch.Now()
	if l.fluidOn {
		// Close the constant-rate segment before switching, so each
		// fluid integration interval has a single drain rate.
		l.settleFluid(now)
	}
	newRate := l.Schedule.RateAt(now)
	if newRate != l.rateBps {
		if l.txPkt != nil {
			l.txBitsLeft -= l.rateBps * (now - l.txUpdated).Seconds()
			if l.txBitsLeft < 0 {
				l.txBitsLeft = 0
			}
			l.txUpdated = now
			l.txTimer.Cancel()
			l.rateBps = newRate
			l.armTx()
		} else {
			l.rateBps = newRate
		}
	}
	if next, ok := l.Schedule.NextChange(now); ok {
		l.Sch.AtFunc(next, l.rateChange)
	}
}

func (l *Link) finishTx() {
	now := l.Sch.Now()
	p := l.txPkt
	l.txPkt = nil
	// Busy time is the packet's wall occupancy of the link, including any
	// stall while the rate was zero, so Utilization stays <= 1.
	l.busyTime += now - l.lastStart
	l.DeliveredPackets++
	l.DeliveredBytes += uint64(p.Size)
	if l.Deliver != nil {
		l.Deliver(p, now)
	}
	l.startNext()
}

// Busy reports whether a packet is currently being transmitted.
func (l *Link) Busy() bool { return l.busy }

// MeanQueueDelay returns the mean per-packet queueing delay at this hop
// (time between enqueue and the start of transmission), the per-hop
// decomposition of a route's end-to-end queueing delay.
func (l *Link) MeanQueueDelay() sim.Time {
	if l.dequeues == 0 {
		return 0
	}
	return l.qdelaySum / sim.Time(l.dequeues)
}

// Utilization returns the fraction of time the link has been transmitting
// since the start of the simulation.
func (l *Link) Utilization() float64 {
	now := l.Sch.Now()
	if now == 0 {
		return 0
	}
	if l.fluidOn {
		// Bring idle-time fluid drain up to date before reading.
		l.settleFluid(now)
	}
	return l.busyTime.Seconds() / now.Seconds()
}
