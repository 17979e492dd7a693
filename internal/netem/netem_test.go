package netem

import (
	"testing"
	"testing/quick"

	"nimbus/internal/sim"
)

func TestDropTailCapacity(t *testing.T) {
	q := NewDropTail(3000)
	now := sim.Time(0)
	if !q.Enqueue(&Packet{Size: 1500}, now) || !q.Enqueue(&Packet{Size: 1500}, now) {
		t.Fatal("enqueue within capacity failed")
	}
	if q.Enqueue(&Packet{Size: 1500}, now) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if q.Drops != 1 || q.BytesQueued() != 3000 || q.Len() != 2 {
		t.Fatalf("state: drops=%d bytes=%d len=%d", q.Drops, q.BytesQueued(), q.Len())
	}
}

func TestDropTailFIFOAndDelay(t *testing.T) {
	q := NewDropTail(1 << 20)
	for i := 0; i < 5; i++ {
		q.Enqueue(&Packet{Seq: uint64(i), Size: 100}, sim.Time(i)*sim.Millisecond)
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue(10 * sim.Millisecond)
		if p.Seq != uint64(i) {
			t.Fatalf("not FIFO: got %d", p.Seq)
		}
		want := 10*sim.Millisecond - sim.Time(i)*sim.Millisecond
		if p.QueueDelay != want {
			t.Fatalf("delay = %v, want %v", p.QueueDelay, want)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue from empty queue")
	}
}

// Property: bytes queued always equals the sum of the sizes of packets
// enqueued minus dequeued.
func TestDropTailConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewDropTail(50000)
		expected := 0
		seq := uint64(0)
		for _, op := range ops {
			if op%3 != 0 {
				size := 100 + int(op)
				if q.Enqueue(&Packet{Seq: seq, Size: size}, 0) {
					expected += size
				}
				seq++
			} else if p := q.Dequeue(0); p != nil {
				expected -= p.Size
			}
		}
		return q.BytesQueued() == expected
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferBytesForDelay(t *testing.T) {
	// 96 Mbit/s, 100 ms => 1.2 MB.
	got := BufferBytesForDelay(96e6, 100*sim.Millisecond)
	if got != 1200000 {
		t.Fatalf("got %d", got)
	}
}

func TestLinkDrainRate(t *testing.T) {
	sch := sim.NewScheduler()
	q := NewDropTail(1 << 20)
	link := NewLink(sch, 12e6, q) // 12 Mbit/s: 1500B = 1 ms each
	var delivered []sim.Time
	link.Deliver = func(p *Packet, now sim.Time) { delivered = append(delivered, now) }
	for i := 0; i < 10; i++ {
		link.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	sch.Run()
	if len(delivered) != 10 {
		t.Fatalf("delivered %d", len(delivered))
	}
	for i, at := range delivered {
		want := sim.Time(i+1) * sim.Millisecond
		if at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
	if link.DeliveredBytes != 15000 {
		t.Fatalf("bytes = %d", link.DeliveredBytes)
	}
}

func TestLinkUtilization(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLink(sch, 12e6, NewDropTail(1<<20))
	link.Deliver = func(p *Packet, now sim.Time) {}
	link.Send(&Packet{Size: 1500})
	sch.AtFunc(2*sim.Millisecond, func() {}) // extend sim to 2 ms
	sch.Run()
	if u := link.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestNetworkRTTAndDelivery(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLink(sch, 96e6, NewDropTail(1<<20))
	net := NewNetwork(sch, link)
	att := net.AttachOn("", 50*sim.Millisecond)
	var rtt sim.Time
	att.Receive = func(p *Packet, now sim.Time) {
		att.SendAckArg(func(any) { rtt = sch.Now() - p.SentAt }, nil)
	}
	att.Send(&Packet{Size: 1500})
	sch.Run()
	// RTT = 50 ms prop + 125 us transmission.
	want := 50*sim.Millisecond + sim.FromSeconds(1500*8/96e6)
	if rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

// TestNetworkPerFlowRouting: each flow's packets reach its own receiver,
// and the packets a tiny buffer refuses are exactly what the link counts
// as dropped.
func TestNetworkPerFlowRouting(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLink(sch, 96e6, NewDropTail(2000)) // tiny buffer
	net := NewNetwork(sch, link)
	a := net.AttachOn("", 20*sim.Millisecond)
	b := net.AttachOn("", 40*sim.Millisecond)
	c := net.AttachOn("", 10*sim.Millisecond)
	var gotA, gotB, gotC int
	a.Receive = func(p *Packet, now sim.Time) { gotA++ }
	b.Receive = func(p *Packet, now sim.Time) { gotB++ }
	c.Receive = func(p *Packet, now sim.Time) { gotC++ }
	a.Send(&Packet{Size: 100})
	b.Send(&Packet{Size: 100})
	b.Send(&Packet{Size: 100})
	const burst = 10
	for i := 0; i < burst; i++ {
		c.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	sch.Run()
	if gotA != 1 || gotB != 2 {
		t.Fatalf("routing wrong: a=%d b=%d", gotA, gotB)
	}
	if gotC == burst {
		t.Fatal("expected drops with tiny buffer")
	}
	if link.DroppedPackets != uint64(burst-gotC) {
		t.Fatalf("link counter %d != %d sent - %d delivered", link.DroppedPackets, burst, gotC)
	}
}

func TestPIEControlsDelay(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRand(1)
	rate := 10e6
	target := 20 * sim.Millisecond
	q := NewPIE(BufferBytesForDelay(rate, 500*sim.Millisecond), rate, target, rng)
	link := NewLink(sch, rate, q)
	net := NewNetwork(sch, link)
	att := net.AttachOn("", 10*sim.Millisecond)
	var delays []float64
	att.Receive = func(p *Packet, now sim.Time) {
		delays = append(delays, p.QueueDelay.Millis())
	}
	// Offered load 1.5x the link rate for 10 seconds.
	interval := sim.FromSeconds(1500 * 8 / (1.5 * rate))
	var inject func()
	n := 0
	inject = func() {
		if sch.Now() > 10*sim.Second {
			return
		}
		att.Send(&Packet{Seq: uint64(n), Size: 1500})
		n++
		sch.AfterFunc(interval, inject)
	}
	sch.AfterFunc(0, inject)
	sch.Run()
	if q.Drops == 0 {
		t.Fatal("PIE never dropped under persistent overload")
	}
	// Steady-state delay should hover near the target, far below the
	// 500 ms tail-drop horizon.
	late := delays[len(delays)/2:]
	sum := 0.0
	for _, d := range late {
		sum += d
	}
	mean := sum / float64(len(late))
	if mean > 3*target.Millis() {
		t.Fatalf("mean delay %v ms far above PIE target %v ms", mean, target.Millis())
	}
}

func TestCoDelDropsUnderOverload(t *testing.T) {
	sch := sim.NewScheduler()
	rate := 10e6
	q := NewCoDel(BufferBytesForDelay(rate, 1*sim.Second))
	link := NewLink(sch, rate, q)
	net := NewNetwork(sch, link)
	att := net.AttachOn("", 10*sim.Millisecond)
	var lastDelay sim.Time
	att.Receive = func(p *Packet, now sim.Time) { lastDelay = p.QueueDelay }
	interval := sim.FromSeconds(1500 * 8 / (1.3 * rate))
	n := 0
	var inject func()
	inject = func() {
		// CoDel's sqrt(count) control law ramps slowly against
		// unresponsive overload; give it 30 s to converge.
		if sch.Now() > 30*sim.Second {
			return
		}
		att.Send(&Packet{Seq: uint64(n), Size: 1500})
		n++
		sch.AfterFunc(interval, inject)
	}
	sch.AfterFunc(0, inject)
	sch.Run()
	if q.Drops == 0 {
		t.Fatal("CoDel never dropped under persistent overload")
	}
	if lastDelay > 200*sim.Millisecond {
		t.Fatalf("CoDel let the queue run away: %v", lastDelay)
	}
}

func TestCoDelNoDropsWhenUnderloaded(t *testing.T) {
	sch := sim.NewScheduler()
	rate := 10e6
	q := NewCoDel(1 << 20)
	link := NewLink(sch, rate, q)
	net := NewNetwork(sch, link)
	att := net.AttachOn("", 10*sim.Millisecond)
	att.Receive = func(p *Packet, now sim.Time) {}
	interval := sim.FromSeconds(1500 * 8 / (0.5 * rate))
	n := 0
	var inject func()
	inject = func() {
		if sch.Now() > 3*sim.Second {
			return
		}
		att.Send(&Packet{Seq: uint64(n), Size: 1500})
		n++
		sch.AfterFunc(interval, inject)
	}
	sch.AfterFunc(0, inject)
	sch.Run()
	if q.Drops != 0 {
		t.Fatalf("CoDel dropped %d packets at 50%% load", q.Drops)
	}
}

func TestQueueDelayNow(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLink(sch, 96e6, NewDropTail(1<<20))
	net := NewNetwork(sch, link)
	link.Q.Enqueue(&Packet{Size: 120000}, 0) // 120 kB at 96 Mbit/s = 10 ms
	got := net.QueueDelayNow()
	if got != 10*sim.Millisecond {
		t.Fatalf("QueueDelayNow = %v", got)
	}
}
