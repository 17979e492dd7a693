package transport

import (
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// lossNote is one loss as the sender reports it: the bytes refunded to
// the source, then whether the controller was told of a timeout.
type lossNote struct {
	bytes   int
	timeout bool
}

// sliceFlight is the sender's in-flight table as it was before the ring:
// a slice of records with a settled prefix, grown by append and copied
// down once the prefix is at least the live part.
type sliceFlight struct {
	recs     []pktRec
	head     int
	nextSeq  uint64
	inflight int
	lost     uint64
	losses   []lossNote
}

func (m *sliceFlight) emit(size int) {
	m.recs = append(m.recs, pktRec{seq: m.nextSeq, size: size})
	m.nextSeq++
	m.inflight += size
}

func (m *sliceFlight) ack(seq uint64) {
	for i := m.head; i < len(m.recs); i++ {
		r := &m.recs[i]
		if r.seq > seq {
			break
		}
		if r.seq == seq {
			if !r.acked && !r.lost {
				r.acked = true
				m.inflight -= r.size
			}
			break
		}
		if !r.acked && !r.lost {
			if r.dup++; r.dup >= dupThresh {
				r.lost = true
				m.inflight -= r.size
				m.lost++
				m.losses = append(m.losses, lossNote{bytes: r.size})
			}
		}
	}
	m.compact()
}

func (m *sliceFlight) rto() {
	lostBytes := 0
	for i := m.head; i < len(m.recs); i++ {
		if r := &m.recs[i]; !r.acked && !r.lost {
			r.lost = true
			lostBytes += r.size
			m.lost++
		}
	}
	m.compact()
	m.inflight = 0
	m.losses = append(m.losses, lossNote{bytes: lostBytes, timeout: true})
}

func (m *sliceFlight) compact() {
	for m.head < len(m.recs) && (m.recs[m.head].acked || m.recs[m.head].lost) {
		m.head++
	}
	if m.head > 0 && m.head*2 >= len(m.recs) {
		m.recs = m.recs[:copy(m.recs, m.recs[m.head:])]
		m.head = 0
	}
}

// ringHarness is the controller and the source of the sender under test.
// As source it mirrors every emit into the model at the moment it
// happens, and its Refund wakes the sender like a ChunkSource's, so the
// losses of one ACK re-enter emit from inside handleAck's loss loop.
type ringHarness struct {
	s      *Sender
	m      *sliceFlight
	cwnd   int
	losses []lossNote
	// refunded is the size of the last refund, which the sender makes
	// just before it tells the controller of the loss.
	refunded int
	// reentered counts the refunds that emitted from inside the sender's
	// loss handling.
	reentered int
}

func (h *ringHarness) Init(*Env)     {}
func (h *ringHarness) OnAck(AckInfo) {}
func (h *ringHarness) OnLoss(l LossInfo) {
	h.losses = append(h.losses, lossNote{h.refunded, l.Timeout})
}
func (h *ringHarness) Control() Transmission  { return Transmission{CwndBytes: h.cwnd} }
func (h *ringHarness) Available(sim.Time) int { return 1 << 30 }
func (h *ringHarness) Consume(n int)          { h.m.emit(n) }
func (h *ringHarness) Refund(n int) {
	h.refunded = n
	before := h.m.nextSeq
	h.s.Wake()
	if h.m.nextSeq > before {
		h.reentered++
	}
}
func (h *ringHarness) Delivered(int, sim.Time) {}

// TestUnackedRing drives a sender's in-flight ring and the slice-backed
// table it replaced through the same history — ACKs in random order
// (most near the front, some far ahead so dup-ACKs declare runs of
// losses, some for packets long settled), timeouts with everything
// outstanding declared lost mid-ring, a window that opens and closes so
// the ring wraps, grows while wrapped and runs empty — and holds the
// live records, the in-flight bytes, the loss count and what the
// controller was told equal after every step. The network never delivers
// anything: the test is the receiver.
func TestUnackedRing(t *testing.T) {
	sch := sim.NewScheduler()
	net := netem.NewNetwork(sch, netem.NewLink(sch, 1e9, netem.NewDropTail(1<<30)))
	h := &ringHarness{m: &sliceFlight{}, cwnd: 4 * netem.DefaultMSS}
	h.s = NewSender(net, 50*sim.Millisecond, h, h, sim.NewRand(1))
	h.s.Start(0)
	h.s.trySend()
	rng := sim.NewRand(2)
	for step := 0; step < 30000; step++ {
		if step%300 == 0 {
			h.cwnd = (1 + rng.Intn(700)) * netem.DefaultMSS
		}
		s, m := h.s, h.m
		if n := s.unacked.Len(); n == 0 {
			s.trySend() // everything settled and the window had shut: reopen
		} else if rng.Intn(400) == 0 && s.inflight > 0 {
			m.rto()
			s.onRTO()
		} else {
			seq := s.unacked.At(0).seq
			switch r := rng.Intn(20); {
			case r < 12: // the oldest record, or one near it
				seq += uint64(rng.Intn(min(n, 4)))
			case r < 18: // anywhere in the ring
				seq += uint64(rng.Intn(n))
			case seq > 0: // long settled
				seq = uint64(rng.Intn(int(seq)))
			}
			m.ack(seq)
			s.handleAck(seq, netem.DefaultMSS, 0, 0, sim.Time(step))
		}
		if s.inflight != m.inflight || s.LostPackets != m.lost || s.nextSeq != m.nextSeq {
			t.Fatalf("step %d: inflight %d lost %d next %d, slice model %d %d %d", step, s.inflight, s.LostPackets, s.nextSeq, m.inflight, m.lost, m.nextSeq)
		}
		live := m.recs[m.head:]
		if s.unacked.Len() != len(live) {
			t.Fatalf("step %d: %d live records, slice model %d", step, s.unacked.Len(), len(live))
		}
		for i, want := range live {
			if got := *s.unacked.At(i); got != want {
				t.Fatalf("step %d: record %d is %+v, slice model %+v", step, i, got, want)
			}
		}
		if len(h.losses) != len(m.losses) {
			t.Fatalf("step %d: controller told of %d losses, slice model %d", step, len(h.losses), len(m.losses))
		}
	}
	for i, want := range h.m.losses {
		if h.losses[i] != want {
			t.Fatalf("loss %d: controller told %+v, slice model %+v", i, h.losses[i], want)
		}
	}
	if h.s.Timeouts == 0 || h.m.lost < 1000 || h.reentered < 100 {
		t.Fatalf("%d timeouts, %d losses, %d refunds that re-entered emit: the history is too tame", h.s.Timeouts, h.m.lost, h.reentered)
	}
}
