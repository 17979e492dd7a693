package netem

import (
	"testing"

	"nimbus/internal/sim"
)

// delivery is one observed packet completion: who, when, and how long it
// queued. Equivalence tests compare full delivery sequences, so any
// divergence in ordering, timing, or delay accounting fails loudly.
type delivery struct {
	seq uint64
	at  sim.Time
	qd  sim.Time
}

// linkRun holds everything a run of runLinkScenario produces.
type linkRun struct {
	dels     []delivery
	drops    []uint64
	executed uint64

	delivered uint64
	bytes     uint64
	dropped   uint64
	meanQD    sim.Time
	util      float64
	queued    int

	// What was offered, indexed by seq.
	sentAt []sim.Time
	size   []int
}

// runLinkScenario drives a deterministic arrival pattern through a
// 12 Mbit/s link (1500 B = 1 ms serialization), letting the caller
// configure the link (enable fluid, add rate) before traffic starts. With
// the 6000 B drop-tail buffer the tests use: an opening flood that
// overflows the buffer, a sustained phase whose 0.73 ms inter-arrivals
// interleave with the 1 ms service times, a second flood after an idle
// gap, and a tail of short 500 B packets that vary the per-packet
// serialization time.
func runLinkScenario(t *testing.T, mkQueue func() Queue, configure func(l *Link)) linkRun {
	t.Helper()
	sch := sim.NewScheduler()
	l := NewLink(sch, 12e6, mkQueue())
	if configure != nil {
		configure(l)
	}
	var r linkRun
	l.Deliver = func(p *Packet, now sim.Time) {
		r.dels = append(r.dels, delivery{p.Seq, now, p.QueueDelay})
	}
	l.OnDrop = func(p *Packet, now sim.Time) {
		r.drops = append(r.drops, p.Seq)
	}
	send := func(at sim.Time, n, size int) {
		for i := 0; i < n; i++ {
			p := &Packet{Seq: uint64(len(r.sentAt)), Size: size}
			r.sentAt = append(r.sentAt, at)
			r.size = append(r.size, size)
			sch.AtFunc(at, func() { l.Send(p) })
		}
	}
	send(0, 8, 1500) // floods the 4-packet buffer: tail drops up front
	for i := 0; i < 30; i++ {
		send(sim.Time(i)*730*sim.Microsecond, 1, 1500)
	}
	send(40*sim.Millisecond, 10, 1500) // second flood after the queue drains
	for i := 0; i < 12; i++ {
		send(55*sim.Millisecond+sim.Time(i)*300*sim.Microsecond, 1, 500)
	}
	sch.RunUntil(100 * sim.Millisecond)

	r.executed = sch.Executed
	r.delivered = l.DeliveredPackets
	r.bytes = l.DeliveredBytes
	r.dropped = l.DroppedPackets
	r.meanQD = l.MeanQueueDelay()
	r.util = l.Utilization()
	r.queued = l.Q.BytesQueued()
	return r
}

// requireSameRun asserts that two runs are observably identical: same
// delivery sequence (identity, completion time, queueing delay), same
// drops, and same counters.
func requireSameRun(t *testing.T, want, got linkRun) {
	t.Helper()
	if len(got.dels) != len(want.dels) {
		t.Fatalf("delivered %d packets, want %d", len(got.dels), len(want.dels))
	}
	for i := range want.dels {
		if got.dels[i] != want.dels[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got.dels[i], want.dels[i])
		}
	}
	if len(got.drops) != len(want.drops) {
		t.Fatalf("dropped %d packets, want %d", len(got.drops), len(want.drops))
	}
	for i := range want.drops {
		if got.drops[i] != want.drops[i] {
			t.Fatalf("drop %d = seq %d, want seq %d", i, got.drops[i], want.drops[i])
		}
	}
	if got.delivered != want.delivered || got.bytes != want.bytes || got.dropped != want.dropped {
		t.Fatalf("counters delivered=%d bytes=%d dropped=%d, want %d/%d/%d",
			got.delivered, got.bytes, got.dropped, want.delivered, want.bytes, want.dropped)
	}
	if got.meanQD != want.meanQD {
		t.Fatalf("MeanQueueDelay = %v, want %v", got.meanQD, want.meanQD)
	}
	if got.util != want.util {
		t.Fatalf("Utilization = %v, want %v", got.util, want.util)
	}
	if got.queued != want.queued {
		t.Fatalf("BytesQueued = %d, want %d", got.queued, want.queued)
	}
}

// TestLinkPerPacket checks the constant-rate drain loop's physics on the
// scenario above, under every queue discipline: packets are conserved
// (each one offered is delivered or dropped once the link has drained),
// delivery is FIFO, the link serializes one packet at a time, every
// completion is exactly arrival + recorded queueing delay + serialization
// time, and the loop costs one scheduler event per delivered packet.
func TestLinkPerPacket(t *testing.T) {
	queues := map[string]func() Queue{
		"droptail": func() Queue { return NewDropTail(6000) },
		"codel":    func() Queue { return NewCoDel(6000) },
		"pie":      func() Queue { return NewPIE(6000, 12e6, 15*sim.Millisecond, sim.NewRand(7)) },
	}
	for name, mk := range queues {
		t.Run(name, func(t *testing.T) {
			var q Queue
			r := runLinkScenario(t, func() Queue { q = mk(); return q }, nil)
			sent := uint64(len(r.sentAt))
			if r.queued != 0 || q.Len() != 0 {
				t.Fatalf("link did not drain: %d B / %d packets still queued", r.queued, q.Len())
			}
			// DropCount includes CoDel's dequeue-time drops, which never
			// reach OnDrop or Link.DroppedPackets.
			if r.delivered+q.DropCount() != sent {
				t.Fatalf("conservation: %d delivered + %d dropped != %d sent", r.delivered, q.DropCount(), sent)
			}
			if r.dropped != uint64(len(r.drops)) || r.dropped > q.DropCount() {
				t.Fatalf("drop counters: link %d, OnDrop %d, queue %d", r.dropped, len(r.drops), q.DropCount())
			}
			if name == "droptail" && r.dropped == 0 {
				t.Fatal("scenario produced no drops; it no longer exercises admission under load")
			}
			if r.delivered != uint64(len(r.dels)) {
				t.Fatalf("DeliveredPackets = %d, Deliver saw %d", r.delivered, len(r.dels))
			}
			var bytes uint64
			var busy, prev sim.Time
			for i, d := range r.dels {
				tx := sim.FromSeconds(float64(r.size[d.seq]) * 8 / 12e6)
				if i > 0 && d.seq <= r.dels[i-1].seq {
					t.Fatalf("delivery %d: seq %d after seq %d (not FIFO)", i, d.seq, r.dels[i-1].seq)
				}
				if d.qd < 0 {
					t.Fatalf("seq %d: negative queueing delay %v", d.seq, d.qd)
				}
				if want := r.sentAt[d.seq] + d.qd + tx; d.at != want {
					t.Fatalf("seq %d completed at %v, want arrival %v + qdelay %v + tx %v = %v",
						d.seq, d.at, r.sentAt[d.seq], d.qd, tx, want)
				}
				if d.at-tx < prev {
					t.Fatalf("seq %d started at %v, before the previous packet completed at %v", d.seq, d.at-tx, prev)
				}
				prev = d.at
				busy += tx
				bytes += uint64(r.size[d.seq])
			}
			if r.bytes != bytes {
				t.Fatalf("DeliveredBytes = %d, want %d", r.bytes, bytes)
			}
			if want := busy.Seconds() / (100 * sim.Millisecond).Seconds(); r.util != want {
				t.Fatalf("Utilization = %v, want %v", r.util, want)
			}
			// One event per arrival plus one completion per delivered
			// packet: nothing else is scheduled on a constant-rate link.
			if want := sent + r.delivered; r.executed != want {
				t.Fatalf("executed %d events, want %d arrivals + %d completions", r.executed, sent, r.delivered)
			}
		})
	}
}

// TestLinkPerPacketAllocFree: a saturated constant-rate link in steady
// state schedules pooled events only and allocates nothing per packet.
func TestLinkPerPacketAllocFree(t *testing.T) {
	sch := sim.NewScheduler()
	l := NewLink(sch, 96e6, NewDropTail(1<<20))
	l.Deliver = func(p *Packet, now sim.Time) { l.Send(p) }
	for i := 0; i < 32; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	end := 50 * sim.Millisecond
	sch.RunUntil(end) // warm: ring and event pool at size
	allocs := testing.AllocsPerRun(50, func() {
		end += 10 * sim.Millisecond
		sch.RunUntil(end)
	})
	if allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %v per run, want 0", allocs)
	}
}

// BenchmarkLinkPerPacket measures the event-loop cost of a saturated
// constant-rate link: 32 packets circulate (Deliver re-sends), and each
// benchmark op advances the clock by 64 packet serialization times
// (1500 B at 96 Mbit/s = 125 us each). Gated in scripts/check_bench.sh
// (zero allocs, wall-clock band).
func BenchmarkLinkPerPacket(b *testing.B) {
	sch := sim.NewScheduler()
	l := NewLink(sch, 96e6, NewDropTail(1<<20))
	l.Deliver = func(p *Packet, now sim.Time) { l.Send(p) }
	for i := 0; i < 32; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	end := 10 * sim.Millisecond
	sch.RunUntil(end)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += 64 * 125 * sim.Microsecond
		sch.RunUntil(end)
	}
	if l.DeliveredPackets == 0 {
		b.Fatal("no packets delivered")
	}
}
