package crosstraffic

import (
	"math"
	"testing"

	"nimbus/internal/cc"
	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

func newNet(rateMbps float64) (*sim.Scheduler, *netem.Topology, *netem.Link) {
	sch := sim.NewScheduler()
	rate := rateMbps * 1e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(netem.BufferBytesForDelay(rate, 100*sim.Millisecond)))
	return sch, netem.NewNetwork(sch, link), link
}

func TestCBRRate(t *testing.T) {
	sch, net, link := newNet(96)
	cbr := NewCBR(net, 40*sim.Millisecond, 24e6)
	cbr.Start(0)
	sch.RunUntil(10 * sim.Second)
	got := float64(link.DeliveredBytes) * 8 / 10 / 1e6
	if math.Abs(got-24) > 0.5 {
		t.Fatalf("CBR delivered %.2f Mbit/s, want ~24", got)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sch, net, link := newNet(96)
	p := NewPoisson(net, 40*sim.Millisecond, 48e6, sim.NewRand(5))
	p.Start(0)
	sch.RunUntil(20 * sim.Second)
	got := float64(link.DeliveredBytes) * 8 / 20 / 1e6
	if math.Abs(got-48) > 2 {
		t.Fatalf("Poisson delivered %.2f Mbit/s, want ~48", got)
	}
}

// TestPoissonQueueIsMD1 holds the packet path to queueing theory rather
// than to itself: Poisson arrivals of 1500 B packets on a 96 Mbit/s link
// with room to queue them all are an M/D/1 queue (service time 125 µs),
// whose mean wait is the Pollaczek-Khinchine ρ/(2(1-ρ)) · 125 µs. 40
// simulated seconds keep every seed within ±5 % (the worst reads 0.970,
// at ρ = 0.8, seed 3; at 20 s it is 0.954) in under a second of wall time
// for all twelve runs.
func TestPoissonQueueIsMD1(t *testing.T) {
	const service = 125e-6 // seconds to serialize 1500 B at 96 Mbit/s
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.8} {
		want := rho / (2 * (1 - rho)) * service
		for seed := int64(1); seed <= 3; seed++ {
			sch, net, link := newNet(96)
			p := NewPoisson(net, 10*sim.Millisecond, rho*96e6, sim.NewRand(seed))
			p.Start(0)
			sch.RunUntil(40 * sim.Second)
			if link.DroppedPackets != 0 {
				t.Fatalf("rho=%.1f seed %d: %d drops; the M/D/1 queue is unbounded", rho, seed, link.DroppedPackets)
			}
			if r := link.MeanQueueDelay().Seconds() / want; math.Abs(r-1) > 0.05 {
				t.Errorf("rho=%.1f seed %d: mean queueing delay %v is %.3f of the Pollaczek-Khinchine %.1f µs",
					rho, seed, link.MeanQueueDelay(), r, want*1e6)
			}
		}
	}
}

func TestRawSourceStop(t *testing.T) {
	sch, net, link := newNet(96)
	cbr := NewCBR(net, 40*sim.Millisecond, 24e6)
	cbr.Start(0)
	sch.RunUntil(5 * sim.Second)
	cbr.Stop()
	at5 := link.DeliveredBytes
	sch.RunUntil(10 * sim.Second)
	// Only in-flight packets may trickle in after Stop: at 24 Mbit/s
	// with a 20 ms forward delay that is ~40 packets.
	if link.DeliveredBytes > at5+60*netem.DefaultMSS {
		t.Fatalf("source kept sending after Stop: %d -> %d", at5, link.DeliveredBytes)
	}
}

func TestRawSourceSetRate(t *testing.T) {
	sch, net, link := newNet(96)
	cbr := NewCBR(net, 40*sim.Millisecond, 10e6)
	cbr.Start(0)
	sch.RunUntil(5 * sim.Second)
	cbr.SetRate(40e6)
	before := link.DeliveredBytes
	sch.RunUntil(10 * sim.Second)
	phase2 := float64(link.DeliveredBytes-before) * 8 / 5 / 1e6
	if math.Abs(phase2-40) > 2 {
		t.Fatalf("after SetRate delivered %.1f Mbit/s, want ~40", phase2)
	}
}

func TestVideo1080pIsApplicationLimited(t *testing.T) {
	// Alone on a 48 Mbit/s link a 1080p client must settle at the top
	// ladder rung (8 Mbit/s), far below the link rate: application
	// limited => inelastic.
	sch, net, link := newNet(48)
	v := &VideoClient{
		Net: net, Rng: sim.NewRand(4), RTT: 50 * sim.Millisecond,
		Ladder: Ladder1080p,
		NewCC:  func() transport.Controller { return cc.NewCubic() },
	}
	v.Start(0)
	dur := 60 * sim.Second
	sch.RunUntil(dur)
	got := float64(link.DeliveredBytes) * 8 / dur.Seconds() / 1e6
	if got > 12 {
		t.Fatalf("1080p delivered %.1f Mbit/s, should be app-limited ~8", got)
	}
	if v.ChunksFetched < 10 {
		t.Fatalf("only %d chunks fetched", v.ChunksFetched)
	}
	if v.Rebuffers > 2 {
		t.Fatalf("%d rebuffers on an idle fat link", v.Rebuffers)
	}
}

// TestVideoClientStopDetaches: Stop retires the connection in one call.
// Nothing of it stays in the topology's flow table, and what it had in
// flight completes its route into the shared packet pool (the
// detach-leak contract of netem's TestDetachRecyclesInFlight).
func TestVideoClientStopDetaches(t *testing.T) {
	sch, net, _ := newNet(48)
	v := &VideoClient{
		Net: net, Rng: sim.NewRand(4), RTT: 50 * sim.Millisecond,
		Ladder: Ladder4K,
		NewCC:  func() transport.Controller { return cc.NewCubic() },
	}
	v.Start(0)
	sch.RunUntil(300 * sim.Millisecond) // mid-chunk, in slow start
	if v.Sender().Inflight() == 0 {
		t.Fatal("nothing in flight to orphan")
	}
	v.Stop()
	if n := net.Flows(); n != 0 {
		t.Fatalf("%d flows still attached after Stop", n)
	}
	delivered := v.Sender().DeliveredBytes
	sch.RunUntil(sim.Second)
	if net.OrphanRecycled == 0 {
		t.Fatal("no in-flight packet of the stopped client was recycled")
	}
	if free := net.FreePackets(); uint64(free) < net.OrphanRecycled {
		t.Fatalf("free list has %d packets, %d orphans were recycled", free, net.OrphanRecycled)
	}
	if v.Sender().DeliveredBytes != delivered {
		t.Fatal("a stopped client kept receiving")
	}
}

func TestVideo4KIsNetworkLimited(t *testing.T) {
	// A 4K client sharing a 48 Mbit/s link with a Cubic flow wants more
	// than its fair share: it should be continuously downloading
	// (network-limited) and consume a large fraction of the link.
	sch, net, _ := newNet(48)
	v := &VideoClient{
		Net: net, Rng: sim.NewRand(4), RTT: 50 * sim.Millisecond,
		Ladder: Ladder4K,
		NewCC:  func() transport.Controller { return cc.NewCubic() },
	}
	v.Start(0)
	cu := transport.NewSender(net, 50*sim.Millisecond, cc.NewCubic(), transport.Backlogged{}, sim.NewRand(8))
	cu.Start(0)
	dur := 60 * sim.Second
	sch.RunUntil(dur)
	videoMbps := float64(v.Sender().DeliveredBytes) * 8 / dur.Seconds() / 1e6
	if videoMbps < 10 {
		t.Fatalf("4K video got %.1f Mbit/s", videoMbps)
	}
}
