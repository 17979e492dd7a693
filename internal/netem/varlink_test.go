package netem

import (
	"math"
	"testing"

	"nimbus/internal/sim"
)

// TestVarLinkPacketSpansRateChange checks exact serialization across a
// transition: a 1500 B packet (12000 bits) on a link that runs at
// 12 Mbit/s for 0.5 ms and then drops to 6 Mbit/s. 6000 bits drain in
// the first phase; the remaining 6000 bits take 1 ms at the new rate, so
// delivery is at exactly 1.5 ms.
func TestVarLinkPacketSpansRateChange(t *testing.T) {
	sch := sim.NewScheduler()
	s, err := NewRateSchedule([]RatePoint{{0, 12e6}, {500 * sim.Microsecond, 6e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	link := NewLinkSchedule(sch, s, NewDropTail(1<<20))
	var deliveredAt sim.Time
	link.Deliver = func(p *Packet, now sim.Time) { deliveredAt = now }
	link.Send(&Packet{Size: 1500})
	sch.Run()
	want := 1500 * sim.Microsecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if link.DeliveredBytes != 1500 {
		t.Fatalf("bytes = %d", link.DeliveredBytes)
	}
}

// TestVarLinkPacketSpansOutage: the same packet stalls through a
// zero-rate window and resumes when capacity returns.
func TestVarLinkPacketSpansOutage(t *testing.T) {
	sch := sim.NewScheduler()
	s, err := NewRateSchedule([]RatePoint{
		{0, 12e6},
		{500 * sim.Microsecond, 0},
		{2500 * sim.Microsecond, 12e6},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	link := NewLinkSchedule(sch, s, NewDropTail(1<<20))
	var deliveredAt sim.Time
	link.Deliver = func(p *Packet, now sim.Time) { deliveredAt = now }
	link.Send(&Packet{Size: 1500})
	sch.Run()
	// 6000 bits by 0.5 ms, stall until 2.5 ms, last 6000 bits by 3.0 ms.
	want := 3 * sim.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if u := link.Utilization(); u > 1.0+1e-9 {
		t.Fatalf("utilization %v > 1 across an outage", u)
	}
}

// TestVarLinkArrivalDuringOutage: a packet arriving at an idle, dark link
// must wait for capacity, not divide by zero or complete instantly.
func TestVarLinkArrivalDuringOutage(t *testing.T) {
	sch := sim.NewScheduler()
	s, err := NewRateSchedule([]RatePoint{{0, 0}, {2 * sim.Millisecond, 12e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	link := NewLinkSchedule(sch, s, NewDropTail(1<<20))
	var deliveredAt sim.Time
	link.Deliver = func(p *Packet, now sim.Time) { deliveredAt = now }
	link.Send(&Packet{Size: 1500})
	sch.Run()
	want := 3 * sim.Millisecond // capacity at 2 ms + 1 ms serialization
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

// backlog fills the queue so the link never idles over the horizon.
func backlog(link *Link, n int) (bytes uint64) {
	for i := 0; i < n; i++ {
		link.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	return uint64(n) * 1500
}

// TestVarLinkConservationAndUtilization: every byte sent is either
// delivered, dropped, or still queued/in flight, and utilization never
// exceeds 1 across many rate steps.
func TestVarLinkConservationAndUtilization(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLinkSchedule(sch, SquareWave(6e6, 24e6, 20*sim.Millisecond), NewDropTail(1<<30))
	sent := backlog(link, 2000)
	sch.RunUntil(1 * sim.Second)

	inFlight := uint64(0)
	if link.txPkt != nil {
		inFlight = uint64(link.txPkt.Size)
	}
	total := link.DeliveredBytes + uint64(link.Q.BytesQueued()) + inFlight
	if total != sent {
		t.Fatalf("byte conservation broken: delivered %d + queued %d + in flight %d != sent %d",
			link.DeliveredBytes, link.Q.BytesQueued(), inFlight, sent)
	}
	if link.DroppedPackets != 0 {
		t.Fatalf("unexpected drops: %d", link.DroppedPackets)
	}
	u := link.Utilization()
	if u > 1.0+1e-9 {
		t.Fatalf("utilization %v > 1", u)
	}
	if u < 0.9 {
		t.Fatalf("backlogged link should be near fully utilized, got %v", u)
	}
}

// TestVarLinkDeliveredMatchesIntegral is the acceptance check for the
// time-varying link: with the queue always backlogged, delivered bytes
// must match the integral of the rate schedule to within one in-flight
// packet (per the piecewise-exact serialization model).
func TestVarLinkDeliveredMatchesIntegral(t *testing.T) {
	schedules := map[string]*RateSchedule{
		"square": SquareWave(6e6, 24e6, 20*sim.Millisecond),
		"ramp":   TriangleRamp(4e6, 40e6, 100*sim.Millisecond, 8),
	}
	for _, name := range TraceNames() {
		s, err := LoadTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		schedules["trace:"+name] = s
	}
	const horizon = 2 * sim.Second
	for name, s := range schedules {
		sch := sim.NewScheduler()
		link := NewLinkSchedule(sch, s, NewDropTail(1<<30))
		// Enough backlog to stay busy: peak rate over the whole horizon.
		need := int(s.MaxBps()*horizon.Seconds()/8/1500) + 10
		backlog(link, need)
		sch.RunUntil(horizon)
		if link.Busy() == false {
			t.Fatalf("%s: link went idle; test needs a standing backlog", name)
		}
		wantBits := s.Bits(0, horizon)
		gotBits := float64(link.DeliveredBytes) * 8
		// Tolerance: one packet in flight plus sub-ns truncation drift.
		tol := 2 * 1500 * 8.0
		if math.Abs(gotBits-wantBits) > tol {
			t.Fatalf("%s: delivered %g bits, schedule integral %g (diff %g > %g)",
				name, gotBits, wantBits, gotBits-wantBits, tol)
		}
		if u := link.Utilization(); u > 1.0+1e-9 {
			t.Fatalf("%s: utilization %v > 1", name, u)
		}
	}
}

// feed drives a link with a steady packet arrival process (one 1500 B
// packet every gap), the way AQM controllers expect to be exercised —
// PIE's drop probability updates lazily at enqueue time, so a
// backlog-at-t-zero test would never run its control loop. Returns a
// pointer to the bytes-sent counter (final value valid after the run).
func feed(sch *sim.Scheduler, link *Link, gap sim.Time) *uint64 {
	sent := new(uint64)
	seq := uint64(0)
	var tick func()
	tick = func() {
		link.Send(&Packet{Seq: seq, Size: 1500})
		seq++
		*sent += 1500
		sch.AfterFunc(gap, tick)
	}
	sch.AtFunc(0, tick)
	return sent
}

// aqmConservation checks the invariant every discipline must keep across
// rate transitions: byte conservation (sent = delivered + dropped +
// queued + in flight) and utilization <= 1. drops must be the
// discipline's total drop count (which includes enqueue refusals, so
// Link.DroppedPackets is a subset of it, not an addend).
func aqmConservation(t *testing.T, name string, link *Link, sent, drops uint64) {
	t.Helper()
	inFlight := uint64(0)
	if link.txPkt != nil {
		inFlight = uint64(link.txPkt.Size)
	}
	total := link.DeliveredBytes + drops*1500 + uint64(link.Q.BytesQueued()) + inFlight
	if total != sent {
		t.Fatalf("%s: conservation broken: delivered %d + dropped %d + queued %d + in flight %d != sent %d",
			name, link.DeliveredBytes, drops*1500, link.Q.BytesQueued(), inFlight, sent)
	}
	if u := link.Utilization(); u > 1.0+1e-9 {
		t.Fatalf("%s: utilization %v > 1", name, u)
	}
}

// TestVarLinkPIEAcrossTransitions: PIE estimates queueing delay from a
// fixed nominal drain rate, so on a square wave whose low phase quarters
// the capacity the real delay exceeds the estimate — the controller must
// still engage (its drop probability held above zero by the standing
// queue), keep the queue off the byte cap, and conserve bytes exactly
// across every transition.
func TestVarLinkPIEAcrossTransitions(t *testing.T) {
	nominal := 24e6
	capBytes := BufferBytesForDelay(nominal, 200*sim.Millisecond)
	rng := sim.NewRand(7)
	q := NewPIE(capBytes, nominal, 20*sim.Millisecond, rng)
	sch := sim.NewScheduler()
	link := NewLinkSchedule(sch, SquareWave(6e6, 24e6, 40*sim.Millisecond), q)
	// Offered load: 24 Mbit/s against a 15 Mbit/s mean capacity.
	sent := feed(sch, link, 500*sim.Microsecond)
	sch.RunUntil(2 * sim.Second)
	aqmConservation(t, "pie/square", link, *sent, q.Drops)
	if q.Drops == 0 {
		t.Fatal("pie never dropped under sustained overload across rate steps")
	}
	if q.DropProb() == 0 {
		t.Fatal("pie drop probability is zero under sustained overload")
	}
	// The controller keeps occupancy near target*nominal (60 KB), far
	// below the 600 KB byte cap; a pinned queue means it disengaged.
	if q.BytesQueued() > capBytes/2 {
		t.Fatalf("pie queue pinned near the byte cap: %d of %d", q.BytesQueued(), capBytes)
	}
}

// TestVarLinkPIEOutage: PIE on a link with an outage (rate 0) must not
// divide by zero, must absorb the stall, and must resume draining after
// recovery.
func TestVarLinkPIEOutage(t *testing.T) {
	nominal := 12e6
	rng := sim.NewRand(9)
	q := NewPIE(BufferBytesForDelay(nominal, 500*sim.Millisecond), nominal, 20*sim.Millisecond, rng)
	sch := sim.NewScheduler()
	link := NewLinkSchedule(sch, OutageAt(nominal, 100*sim.Millisecond, 200*sim.Millisecond), q)
	sent := feed(sch, link, 1*sim.Millisecond) // offered exactly at nominal
	sch.RunUntil(1 * sim.Second)
	aqmConservation(t, "pie/outage", link, *sent, q.Drops)
	// 800 ms of service at 12 Mbit/s is 1.2 MB; require most of it.
	wantMin := uint64(0.7 * 0.8 * nominal / 8)
	if link.DeliveredBytes < wantMin {
		t.Fatalf("delivered %d bytes across outage, want >= %d", link.DeliveredBytes, wantMin)
	}
}

// TestVarLinkCoDelAcrossTransitions: CoDel acts on measured sojourn time,
// so unlike PIE it needs no drain-rate estimate — across capacity steps
// it must engage and keep the standing queue's sojourn bounded near its
// target once in the dropping state.
func TestVarLinkCoDelAcrossTransitions(t *testing.T) {
	q := NewCoDel(1 << 22)
	s := SquareWave(6e6, 24e6, 40*sim.Millisecond)
	sch := sim.NewScheduler()
	link := NewLinkSchedule(sch, s, q)
	// Keep the queue fed (but finite) over the horizon.
	sent := backlog(link, 4000)
	sch.RunUntil(2 * sim.Second)
	if q.Drops == 0 {
		t.Fatal("codel never entered dropping state under overload across rate steps")
	}
	inFlight := uint64(0)
	if link.txPkt != nil {
		inFlight = uint64(link.txPkt.Size)
	}
	total := link.DeliveredBytes + q.Drops*1500 + uint64(q.BytesQueued()) + inFlight
	if total != sent {
		t.Fatalf("codel conservation broken: %d != %d", total, sent)
	}
	// CoDel's control law drains the standing queue toward Target
	// sojourn; with drops accounted, the queue must sit far below an
	// uncontrolled tail-drop queue (which would hold nearly all 4000
	// packets).
	if q.Len() > 2000 {
		t.Fatalf("codel standing queue %d packets; control law not engaging", q.Len())
	}
}

// TestConstantLinkFastPathUnchanged: a constant-rate link completes each
// packet one serialization time after the last, re-arms its one owned
// completion timer instead of drawing from the scheduler's free list,
// and allocates nothing per packet once warm.
func TestConstantLinkFastPathUnchanged(t *testing.T) {
	sch := sim.NewScheduler()
	link := NewLink(sch, 12e6, NewDropTail(1<<20))
	if link.Varying() {
		t.Fatal("constant link reports varying")
	}
	var times []sim.Time
	link.Deliver = func(p *Packet, now sim.Time) { times = append(times, now) }
	backlog(link, 5)
	sch.Run()
	if len(times) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(times))
	}
	for i, at := range times {
		if want := sim.Time(i+1) * sim.Millisecond; at != want {
			t.Fatalf("packet %d at %v, want %v", i, at, want)
		}
	}
	if sch.PoolReuses != 0 || sch.FreeTimers() != 0 {
		t.Fatalf("constant path drew on the scheduler's free list: %d reuses, %d free timers",
			sch.PoolReuses, sch.FreeTimers())
	}

	// Warm: the link re-sends what it delivers, so its timer is re-armed
	// once per packet for as long as the run lasts.
	link.Deliver = func(p *Packet, now sim.Time) { link.Send(p) }
	backlog(link, 8)
	end := sch.Now() + 20*sim.Millisecond
	sch.RunUntil(end)
	before := link.DeliveredPackets
	allocs := testing.AllocsPerRun(50, func() {
		end += 10 * sim.Millisecond
		sch.RunUntil(end)
	})
	if allocs != 0 {
		t.Fatalf("constant link allocates %v per 10 packets, want 0", allocs)
	}
	if link.DeliveredPackets == before {
		t.Fatal("warm link delivered nothing")
	}
	if sch.PoolReuses != 0 || sch.FreeTimers() != 0 {
		t.Fatalf("warm constant path drew on the scheduler's free list: %d reuses, %d free timers",
			sch.PoolReuses, sch.FreeTimers())
	}
}
