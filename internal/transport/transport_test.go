package transport

import (
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// fixedCC is a minimal window controller for transport-mechanics tests.
type fixedCC struct {
	cwnd int
	pace float64

	acks     int
	losses   int
	timeouts int
	rtts     []sim.Time
}

func (f *fixedCC) Init(env *Env) {}
func (f *fixedCC) OnAck(a AckInfo) {
	f.acks++
	f.rtts = append(f.rtts, a.RTT)
}
func (f *fixedCC) OnLoss(l LossInfo) {
	f.losses++
	if l.Timeout {
		f.timeouts++
	}
}
func (f *fixedCC) Control() Transmission {
	return Transmission{CwndBytes: f.cwnd, PaceBps: f.pace}
}

type env struct {
	sch  *sim.Scheduler
	link *netem.Link
	net  *netem.Topology
}

func newEnv(rateMbps float64, bufMs sim.Time) *env {
	sch := sim.NewScheduler()
	rate := rateMbps * 1e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(netem.BufferBytesForDelay(rate, bufMs)))
	return &env{sch: sch, link: link, net: netem.NewNetwork(sch, link)}
}

func TestWindowLimitedThroughput(t *testing.T) {
	// With cwnd = BDP, a window flow should achieve exactly the link rate
	// after the first RTT.
	e := newEnv(48, 100*sim.Millisecond)
	rtt := 50 * sim.Millisecond
	bdp := int(48e6 / 8 * rtt.Seconds()) // 300 kB
	cc := &fixedCC{cwnd: bdp}
	s := NewSender(e.net, rtt, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(10 * sim.Second)
	gotMbps := float64(s.DeliveredBytes) * 8 / 10 / 1e6
	if gotMbps < 44 || gotMbps > 48.5 {
		t.Fatalf("throughput = %.1f Mbit/s, want ~48", gotMbps)
	}
	if s.LostPackets != 0 {
		t.Fatalf("unexpected losses: %d", s.LostPackets)
	}
}

func TestRTTMeasurement(t *testing.T) {
	e := newEnv(96, 100*sim.Millisecond)
	rtt := 80 * sim.Millisecond
	cc := &fixedCC{cwnd: 2 * 1500}
	s := NewSender(e.net, rtt, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(2 * sim.Second)
	if len(cc.rtts) == 0 {
		t.Fatal("no RTT samples")
	}
	tx := sim.FromSeconds(1500 * 8 / e.link.Rate())
	min := cc.rtts[0]
	for _, r := range cc.rtts {
		if r < min {
			min = r
		}
	}
	if min < rtt+tx || min > rtt+2*tx+sim.Millisecond {
		t.Fatalf("min RTT = %v, want ~%v", min, rtt+tx)
	}
	if s.clock.SRTT() < rtt {
		t.Fatalf("srtt = %v below base", s.clock.SRTT())
	}
}

func TestPacingRate(t *testing.T) {
	// Pure pacing at 10 Mbit/s on an idle 100 Mbit/s link: delivery must
	// match the pacing rate, not the link rate.
	e := newEnv(100, 100*sim.Millisecond)
	cc := &fixedCC{cwnd: 1 << 24, pace: 10e6}
	s := NewSender(e.net, 40*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(10 * sim.Second)
	gotMbps := float64(s.DeliveredBytes) * 8 / 10 / 1e6
	if gotMbps < 9.5 || gotMbps > 10.5 {
		t.Fatalf("paced throughput = %.2f, want ~10", gotMbps)
	}
}

func TestDupAckLossDetection(t *testing.T) {
	// Overdrive a small buffer: drops must be detected and reported.
	e := newEnv(10, 20*sim.Millisecond)
	cc := &fixedCC{cwnd: 1 << 22} // far beyond BDP+buffer
	s := NewSender(e.net, 40*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(5 * sim.Second)
	if cc.losses == 0 {
		t.Fatal("no losses detected despite overdriven buffer")
	}
	if s.LostPackets == 0 {
		t.Fatal("sender loss counter zero")
	}
}

func TestInflightConservation(t *testing.T) {
	e := newEnv(10, 20*sim.Millisecond)
	cc := &fixedCC{cwnd: 64 * 1500}
	s := NewSender(e.net, 40*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	for tEnd := sim.Second; tEnd <= 5*sim.Second; tEnd += sim.Second {
		e.sch.RunUntil(tEnd)
		if s.Inflight() < 0 {
			t.Fatalf("negative inflight: %d", s.Inflight())
		}
		if s.Inflight() > cc.cwnd+1500 {
			t.Fatalf("inflight %d exceeds window %d", s.Inflight(), cc.cwnd)
		}
	}
}

func TestFiniteFlowCompletes(t *testing.T) {
	e := newEnv(48, 100*sim.Millisecond)
	var fct sim.Time
	src := NewFiniteFlow(150000, func(now sim.Time) { fct = now })
	cc := &fixedCC{cwnd: 20 * 1500}
	s := NewSender(e.net, 50*sim.Millisecond, cc, src, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(10 * sim.Second)
	if !src.Done() {
		t.Fatal("flow did not complete")
	}
	// 150 kB = 100 pkts, window 20: ~5 RTTs plus change.
	if fct < 100*sim.Millisecond || fct > 2*sim.Second {
		t.Fatalf("fct = %v", fct)
	}
	if src.delivered < 150000 {
		t.Fatalf("delivered %d < size", src.delivered)
	}
}

func TestFiniteFlowCompletesDespiteLosses(t *testing.T) {
	// Tiny buffer forces drops; the refund mechanism must still deliver
	// all bytes.
	e := newEnv(5, 10*sim.Millisecond)
	var done bool
	src := NewFiniteFlow(400000, func(now sim.Time) { done = true })
	cc := &fixedCC{cwnd: 80 * 1500}
	s := NewSender(e.net, 30*sim.Millisecond, cc, src, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(30 * sim.Second)
	if s.LostPackets == 0 {
		t.Fatal("test needs losses to be meaningful")
	}
	if !done {
		t.Fatalf("flow did not complete despite refunds (delivered %d)", src.delivered)
	}
}

func TestRTOFiresWhenEverythingDrops(t *testing.T) {
	// Buffer of one packet and a burst: most of the window drops; without
	// enough dup-ACKs the RTO must recover the flow.
	sch := sim.NewScheduler()
	rate := 1e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(3000))
	net := netem.NewNetwork(sch, link)
	cc := &fixedCC{cwnd: 40 * 1500}
	s := NewSender(net, 20*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	sch.RunUntil(10 * sim.Second)
	if s.Timeouts == 0 && cc.losses == 0 {
		t.Fatal("no loss signal of any kind")
	}
	if s.DeliveredBytes == 0 {
		t.Fatal("flow made no progress")
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	e := newEnv(48, 100*sim.Millisecond)
	cc := &fixedCC{cwnd: 100 * 1500}
	s := NewSender(e.net, 50*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(sim.Second)
	sent := s.SentBytes
	s.Stop()
	// Stop is the whole teardown: the flow is off the topology at once,
	// and what it had in flight ends in the shared packet pool.
	if n := e.net.Flows(); n != 0 {
		t.Fatalf("%d flows attached after Stop", n)
	}
	acks := cc.acks
	e.sch.RunUntil(3 * sim.Second)
	if s.SentBytes != sent {
		t.Fatal("sender kept transmitting after Stop")
	}
	if cc.acks != acks {
		t.Fatal("controller saw ACKs after Stop")
	}
	if e.net.OrphanRecycled == 0 || uint64(e.net.FreePackets()) < e.net.OrphanRecycled {
		t.Fatalf("in-flight packets not recycled: %d orphans, %d free", e.net.OrphanRecycled, e.net.FreePackets())
	}
}

// TestTapDeliveriesChains: taps run in the order they were added, after
// a hook that was already set.
func TestTapDeliveriesChains(t *testing.T) {
	e := newEnv(48, 100*sim.Millisecond)
	s := NewSender(e.net, 50*sim.Millisecond, &fixedCC{cwnd: 10 * 1500}, Backlogged{}, sim.NewRand(1))
	var order []string
	s.OnDeliverHook = func(*netem.Packet, sim.Time) { order = append(order, "hook") }
	s.TapDeliveries(func(*netem.Packet, sim.Time) { order = append(order, "tap1") })
	s.TapDeliveries(func(*netem.Packet, sim.Time) { order = append(order, "tap2") })
	s.Start(0)
	e.sch.RunUntil(26 * sim.Millisecond) // the first packet, 25 ms one way
	if len(order) < 3 || order[0] != "hook" || order[1] != "tap1" || order[2] != "tap2" {
		t.Fatalf("delivery observers ran as %v, want hook, tap1, tap2 per packet", order)
	}
}

func TestChunkSourceWake(t *testing.T) {
	e := newEnv(48, 100*sim.Millisecond)
	cc := &fixedCC{cwnd: 100 * 1500}
	src := &ChunkSource{}
	chunks := 0
	src.OnChunkDone = func(now sim.Time) { chunks++ }
	s := NewSender(e.net, 50*sim.Millisecond, cc, src, sim.NewRand(1))
	s.Start(0)
	e.sch.RunUntil(100 * sim.Millisecond) // idle: no data yet
	if s.SentBytes != 0 {
		t.Fatal("sent without app data")
	}
	src.AddChunk(30000)
	e.sch.RunUntil(2 * sim.Second)
	if chunks != 1 {
		t.Fatalf("chunk completions = %d, want 1", chunks)
	}
	// Second chunk after idle period must also transmit (Wake path).
	src.AddChunk(30000)
	e.sch.RunUntil(4 * sim.Second)
	if chunks != 2 {
		t.Fatalf("chunk completions = %d, want 2", chunks)
	}
}

func TestAckInfoFields(t *testing.T) {
	e := newEnv(96, 100*sim.Millisecond)
	var got []AckInfo
	cc := &fixedCC{cwnd: 4 * 1500}
	s := NewSender(e.net, 60*sim.Millisecond, cc, Backlogged{}, sim.NewRand(1))
	s.OnAckHook = func(a AckInfo) { got = append(got, a) }
	s.Start(0)
	e.sch.RunUntil(sim.Second)
	if len(got) < 10 {
		t.Fatalf("too few acks: %d", len(got))
	}
	var lastDel uint64
	for _, a := range got {
		if a.RTT != a.AckedAt-a.SentAt {
			t.Fatal("RTT inconsistent with timestamps")
		}
		if a.Delivered < lastDel {
			t.Fatal("Delivered went backwards")
		}
		lastDel = a.Delivered
		if a.Bytes <= 0 {
			t.Fatalf("bad ack: %+v", a)
		}
	}
}

// spyQueue records every packet offered to a link. A packet drawn from
// the pool enters a link first thing (data on the route's first forward
// hop, an ACK packet on its first reverse hop), so the union over a
// topology's links is every packet a run took from the pool.
type spyQueue struct {
	netem.Queue
	seen map[*netem.Packet]bool
}

func (q spyQueue) Enqueue(p *netem.Packet, now sim.Time) bool {
	q.seen[p] = true
	return q.Queue.Enqueue(p, now)
}

// TestAckRidesPacket: a delivered packet travels back as its own ACK and
// the sender returns it, and a packet a queue refuses goes back from
// there, so once a finite flow is done every packet taken from the pool
// is back in it exactly once — on the ideal reverse path, on a congested
// one, on one that drops ACKs, where the ACK packet and the data packet
// it carried both end in Topology.drop, and behind a bottleneck that
// drops data.
func TestAckRidesPacket(t *testing.T) {
	for _, c := range []struct {
		name     string
		fwdBuf   int
		revBuf   int // 0: ideal reverse path
		ackDrops bool
	}{
		{"single", 1 << 20, 0, false},
		{"rev-congested", 1 << 20, 1 << 20, false},
		{"rev-congested, ACK drops", 1 << 20, 3 * netem.AckSize, true},
		{"single, data drops", 10 * 1500, 0, false},
		{"rev-congested, data and ACK drops", 10 * 1500, 3 * netem.AckSize, true},
	} {
		sch := sim.NewScheduler()
		seen := map[*netem.Packet]bool{}
		spy := func(q netem.Queue) netem.Queue { return spyQueue{q, seen} }
		bn := netem.NewLink(sch, 48e6, spy(netem.NewDropTail(c.fwdBuf)))
		net := netem.NewNetwork(sch, bn)
		if c.revBuf > 0 {
			// The rev-congested preset's shape, narrower: a window's ACKs
			// arrive every 0.25 ms and take 0.512 ms each to cross.
			rev := netem.NewLink(sch, 1e6, spy(netem.NewDropTail(c.revBuf)))
			net = netem.NewTopology(sch)
			net.AddLink(bn)
			net.AddLink(rev)
			net.AddRoute(&netem.Route{Fwd: []netem.Hop{{Link: bn}}, Rev: []netem.Hop{{Link: rev}}})
			net.Link = bn
		}
		src := NewFiniteFlow(600000, nil)
		s := NewSender(net, 50*sim.Millisecond, &fixedCC{cwnd: 40 * 1500}, src, sim.NewRand(1))
		s.Start(0)
		sch.RunUntil(60 * sim.Second)
		if !src.Done() || s.Inflight() != 0 {
			t.Fatalf("%s: done %v, inflight %d: the case needs a settled flow", c.name, src.Done(), s.Inflight())
		}
		if dataDrops := c.fwdBuf < 40*1500; (bn.DroppedPackets > 0) != dataDrops || (net.AckDrops > 0) != c.ackDrops {
			t.Fatalf("%s: %d data drops, %d ACK drops", c.name, bn.DroppedPackets, net.AckDrops)
		}
		free := net.FreePackets()
		if free != len(seen) {
			t.Fatalf("%s: %d packets taken from the pool, %d back in it", c.name, len(seen), free)
		}
		for i := 0; i < free; i++ {
			p := net.GetPacket()
			if !seen[p] {
				t.Fatalf("%s: a packet is in the pool twice", c.name)
			}
			delete(seen, p)
		}
	}
}

// gateQueue refuses every packet while shut.
type gateQueue struct {
	netem.Queue
	shut *bool
}

func (q gateQueue) Enqueue(p *netem.Packet, now sim.Time) bool {
	return !*q.shut && q.Queue.Enqueue(p, now)
}

// TestRTOArmedAfterIdle reproduces a flow that never recovers when its
// whole first flight after an idle period is lost: handleAck cancels the
// RTO once nothing is in flight, and emit re-arms only a timer that is nil
// or has fired — a cancelled one is neither, so no timeout is pending, no
// ACK will come, and the flow sits on its in-flight bytes for good.
func TestRTOArmedAfterIdle(t *testing.T) {
	t.Skip("ROADMAP item 2: arming in emit whenever no RTO is pending fixes this but moves fig08, fig09, fig11 and fig21 (finite and chunked flows hit it), so the fix rides the declared-output PR")
	sch := sim.NewScheduler()
	shut := false
	link := netem.NewLink(sch, 48e6, gateQueue{netem.NewDropTail(1 << 20), &shut})
	src := &ChunkSource{}
	s := NewSender(netem.NewNetwork(sch, link), 50*sim.Millisecond, &fixedCC{cwnd: 10 * 1500}, src, sim.NewRand(1))
	s.Start(0)
	src.AddChunk(3000)
	sch.RunUntil(sim.Second) // chunk 1 delivered and acknowledged: idle, RTO cancelled
	shut = true
	src.AddChunk(3000) // the whole flight is refused when it reaches the link, 25 ms on
	sch.RunUntil(sim.Second + 100*sim.Millisecond)
	shut = false
	sch.RunUntil(30 * sim.Second)
	if s.DeliveredBytes != 6000 {
		t.Fatalf("delivered %d of 6000 bytes, timeouts %d, inflight %d", s.DeliveredBytes, s.Timeouts, s.Inflight())
	}
}
