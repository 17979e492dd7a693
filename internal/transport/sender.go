package transport

import (
	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Timing constants for the retransmission timer, mirroring common TCP
// practice (RFC 6298, with a floor suited to simulated WAN RTTs).
const (
	minRTO    = 200 * sim.Millisecond
	maxRTO    = 4 * sim.Second
	dupThresh = 3 // dup-ACK threshold for loss declaration
)

type pktRec struct {
	seq   uint64
	size  int
	acked bool
	lost  bool
	dup   int
}

// Sender is a transport endpoint: it emits MSS-sized packets subject to
// the controller's window and pacing rate, tracks ACKs, declares losses
// via dup-ACK counting and an RTO, and reports everything to the
// controller. The receiver side is folded in: delivered packets generate
// ACK events on the uncongested reverse path.
type Sender struct {
	env Env
	att *netem.Attachment
	cc  Controller
	app Source
	mss int

	nextSeq     uint64
	inflight    int
	unacked     stats.Queue[pktRec] // in-flight records, oldest first, from the oldest unsettled one
	lossScratch []int               // handleAck's lost sizes, reset per ACK

	clock      RTTClock
	rttvar     sim.Time
	rto        sim.Time
	rtoTimer   *sim.Timer
	rtoBackoff int

	paceTimer  *sim.Timer
	nextSendAt sim.Time

	stopped bool

	// Reusable callbacks for the per-packet hot path. Packets come from
	// the topology's shared pool; a delivered packet is its own ACK (it
	// rides the reverse path as the ACK event's argument) and goes back to
	// the pool when the ACK arrives, and a dropped packet goes back where
	// it was dropped (Topology.drop), so emit is allocation-free in steady
	// state. The shared pool also lets the topology recycle in-flight
	// packets of flows detached mid-stream.
	trySendFn func()
	onRTOFn   func()
	onAckFn   func(arg any)

	// Counters and hooks.
	SentBytes      uint64
	DeliveredBytes uint64
	LostPackets    uint64
	Timeouts       uint64
	// OnAckHook, if set, observes every AckInfo (metrics).
	OnAckHook func(a AckInfo)
	// OnDeliverHook, if set, observes every delivered packet at the
	// receiver (metrics: per-packet queueing delay, throughput).
	OnDeliverHook func(p *netem.Packet, now sim.Time)
}

// NewSender attaches a flow with the given controller and source to the
// network's default route with base RTT rtt. The flow does not transmit
// until Start.
func NewSender(net *netem.Topology, rtt sim.Time, cc Controller, app Source, rng *sim.Rand) *Sender {
	return NewSenderOn(net, "", rtt, cc, app, rng)
}

// NewSenderOn is NewSender on a named route of the topology ("" is the
// default route). Unknown routes panic, mirroring netem.AttachOn.
func NewSenderOn(net *netem.Topology, route string, rtt sim.Time, cc Controller, app Source, rng *sim.Rand) *Sender {
	att := net.AttachOn(route, rtt)
	s := &Sender{
		att: att,
		cc:  cc,
		app: app,
		mss: netem.DefaultMSS,
		rto: 1 * sim.Second,
	}
	s.env = Env{Sch: net.Sch, Rand: rng, MSS: s.mss, Sender: s}
	s.trySendFn = s.trySend
	s.onRTOFn = s.onRTO
	s.onAckFn = s.onAckEvent
	att.Receive = s.onDeliver
	if ch, ok := app.(*ChunkSource); ok {
		ch.Wake = s.Wake
	}
	return s
}

// ID returns the flow's identifier at the bottleneck.
func (s *Sender) ID() netem.FlowID { return s.att.ID }

// Inflight returns bytes currently in flight.
func (s *Sender) Inflight() int { return s.inflight }

// Start initializes the controller and begins transmission at time start.
func (s *Sender) Start(start sim.Time) {
	s.cc.Init(&s.env)
	s.env.Sch.AtFunc(start, s.trySendFn)
}

// Stop retires the flow in one call: it halts transmission, cancels
// timers and detaches the flow from the topology. In-flight packets
// drain into the shared packet pool and their ACKs are ignored.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoTimer.Cancel()
	s.paceTimer.Cancel()
	s.att.Detach()
}

// TapDeliveries chains an observer onto the delivery hook, after any
// observer already there (a probe's meters).
func (s *Sender) TapDeliveries(tap func(p *netem.Packet, now sim.Time)) {
	prev := s.OnDeliverHook
	if prev == nil {
		s.OnDeliverHook = tap
		return
	}
	s.OnDeliverHook = func(p *netem.Packet, now sim.Time) {
		prev(p, now)
		tap(p, now)
	}
}

// Wake restarts transmission after the application adds data.
func (s *Sender) Wake() {
	if !s.stopped {
		s.trySend()
	}
}

// trySend transmits as many packets as the window, pacing rate, and
// application allow, then arms the pacing timer if pacing-limited.
func (s *Sender) trySend() {
	if s.stopped {
		return
	}
	for {
		tr := s.cc.Control()
		// Window check; always allow at least one packet in flight so a
		// sub-MSS window cannot deadlock the flow.
		if tr.CwndBytes > 0 && s.inflight > 0 && s.inflight+s.mss > tr.CwndBytes {
			return // window-limited; ACKs will re-trigger
		}
		avail := s.app.Available(s.env.Sch.Now())
		if avail <= 0 {
			return // app-limited; Wake will re-trigger
		}
		if tr.PaceBps > 0 {
			now := s.env.Sch.Now()
			if s.nextSendAt > now {
				s.armPace(s.nextSendAt)
				return
			}
			size := s.mss
			if avail < size {
				size = avail
			}
			s.emit(size)
			gap := sim.FromSeconds(float64(size*8) / tr.PaceBps)
			if s.nextSendAt < now {
				s.nextSendAt = now
			}
			s.nextSendAt += gap
		} else {
			size := s.mss
			if avail < size {
				size = avail
			}
			s.emit(size)
		}
	}
}

func (s *Sender) emit(size int) {
	p := s.att.GetPacket()
	*p = netem.Packet{Seq: s.nextSeq, Size: size}
	s.nextSeq++
	s.unacked.Push(pktRec{seq: p.Seq, size: size})
	s.inflight += size
	s.SentBytes += uint64(size)
	s.app.Consume(size)
	s.att.Send(p)
	if s.rtoTimer == nil || s.rtoTimer.Fired() {
		s.armRTO()
	}
}

func (s *Sender) armPace(at sim.Time) {
	if s.paceTimer != nil && !s.paceTimer.Fired() && s.paceTimer.When() <= at {
		return
	}
	// Rearm recycles the handle's Timer struct, so per-packet pacing costs
	// no allocation once the flow is warm.
	s.paceTimer = s.env.Sch.Rearm(s.paceTimer, at, s.trySendFn)
}

// KickPacing clears any pending pacing gap so a rate increase takes
// effect immediately (used by rate-based controllers after large jumps).
func (s *Sender) KickPacing() {
	now := s.env.Sch.Now()
	if s.nextSendAt > now {
		s.nextSendAt = now
		s.trySend()
	}
}

func (s *Sender) armRTO() {
	d := s.rto << uint(s.rtoBackoff)
	if d > maxRTO {
		d = maxRTO
	}
	// Re-armed on every ACK, nearly always later than the pending
	// timeout: Rearm then leaves the handle where it is in the event
	// queue and records the new time on it, and the scheduler re-queues
	// it there when the old time comes up. No allocation, and no queue
	// work per ACK; only a timeout that shrank moves it earlier.
	s.rtoTimer = s.env.Sch.Rearm(s.rtoTimer, s.env.Sch.Now()+d, s.onRTOFn)
}

func (s *Sender) onRTO() {
	if s.stopped || s.inflight == 0 {
		return
	}
	s.Timeouts++
	s.rtoBackoff++
	now := s.env.Sch.Now()
	// Declare everything outstanding lost, refund, notify once.
	lostBytes := 0
	for i := range s.unacked.Len() {
		r := s.unacked.At(i)
		if !r.acked && !r.lost {
			r.lost = true
			lostBytes += r.size
			s.LostPackets++
		}
	}
	s.compact()
	s.inflight = 0
	s.app.Refund(lostBytes)
	s.cc.OnLoss(LossInfo{Now: now, Timeout: true})
	s.armRTO()
	s.trySend()
}

// onDeliver runs at the receiver when a data packet exits the bottleneck.
func (s *Sender) onDeliver(p *netem.Packet, now sim.Time) {
	if s.stopped {
		return
	}
	s.DeliveredBytes += uint64(p.Size)
	s.app.Delivered(p.Size, now)
	if s.OnDeliverHook != nil {
		s.OnDeliverHook(p, now)
	}
	// The packet is its own ACK: nothing reads it on the way back but
	// onAckEvent (or Topology.drop, if the reverse path loses it).
	p.Delivered = s.DeliveredBytes
	s.att.SendAckArg(s.onAckFn, p)
}

// onAckEvent runs at the sender when an ACK arrives on the reverse path.
// The ACK is the delivered data packet; the sender is its last holder.
func (s *Sender) onAckEvent(arg any) {
	p := arg.(*netem.Packet)
	seq, size, sentAt, delivered := p.Seq, p.Size, p.SentAt, p.Delivered
	s.att.PutPacket(p)
	s.handleAck(seq, size, sentAt, delivered, s.env.Sch.Now())
}

func (s *Sender) handleAck(seq uint64, size int, sentAt sim.Time, delivered uint64, now sim.Time) {
	if s.stopped {
		return
	}
	rtt := now - sentAt
	s.updateRTT(rtt)
	s.rtoBackoff = 0

	// Lost sizes are snapshotted by value: compact() below
	// releases the records' slots, and Refund can re-enter emit (via
	// Wake), which writes over them (or moves the ring) mid-loop. The
	// snapshot reuses the sender's scratch slice: ACK events never nest,
	// so nothing else touches it until the loop below is done.
	losses := s.lossScratch[:0]
	for i := range s.unacked.Len() {
		r := s.unacked.At(i)
		if r.seq > seq {
			break
		}
		if r.seq == seq {
			if !r.acked && !r.lost {
				r.acked = true
				s.inflight -= r.size
			}
			// A lost-then-acked packet was a spurious declaration; the
			// refunded bytes are simply sent again, which is harmless
			// for throughput accounting.
			break
		}
		if !r.acked && !r.lost {
			r.dup++
			if r.dup >= dupThresh {
				r.lost = true
				s.inflight -= r.size
				s.LostPackets++
				losses = append(losses, r.size)
			}
		}
	}
	s.compact()
	s.lossScratch = losses

	for _, size := range losses {
		s.app.Refund(size)
		s.cc.OnLoss(LossInfo{Now: now})
	}
	ai := AckInfo{
		Bytes:     size,
		SentAt:    sentAt,
		AckedAt:   now,
		RTT:       rtt,
		Inflight:  s.inflight,
		Delivered: delivered,
	}
	s.cc.OnAck(ai)
	if s.OnAckHook != nil {
		s.OnAckHook(ai)
	}
	if s.inflight > 0 {
		s.armRTO()
	} else {
		s.rtoTimer.Cancel()
	}
	s.trySend()
}

func (s *Sender) updateRTT(rtt sim.Time) {
	if srtt := s.clock.SRTT(); srtt == 0 {
		s.rttvar = rtt / 2
	} else {
		d := srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar += (d - s.rttvar) / 4
	}
	s.clock.See(rtt)
	s.rto = s.clock.SRTT() + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// compact releases the settled records at the front of the ring.
func (s *Sender) compact() {
	for s.unacked.Len() > 0 {
		if r := s.unacked.At(0); !r.acked && !r.lost {
			break
		}
		s.unacked.PopFront()
	}
}
