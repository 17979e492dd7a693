package cc

import (
	"fmt"
	"strings"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// rig is a single-bottleneck test network.
type rig struct {
	sch  *sim.Scheduler
	link *netem.Link
	net  *netem.Topology
	rng  *sim.Rand
}

func newRig(rateMbps float64, buf sim.Time) *rig {
	sch := sim.NewScheduler()
	rate := rateMbps * 1e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(netem.BufferBytesForDelay(rate, buf)))
	return &rig{sch: sch, link: link, net: netem.NewNetwork(sch, link), rng: sim.NewRand(7)}
}

// onDeliver observes every packet the bottleneck delivers, before the
// packet moves on: the rig is one hop with an ideal reverse path, so this
// is every data packet at the instant it reaches its receiver.
func (r *rig) onDeliver(f func(p *netem.Packet, now sim.Time)) {
	next := r.link.Deliver
	r.link.Deliver = func(p *netem.Packet, now sim.Time) {
		f(p, now)
		next(p, now)
	}
}

// addFlow attaches a backlogged flow and returns its sender plus a delay
// probe that accumulates per-packet queueing delay.
func (r *rig) addFlow(ctrl transport.Controller, rtt sim.Time) *transport.Sender {
	s := transport.NewSender(r.net, rtt, ctrl, transport.Backlogged{}, r.rng.Split("flow"))
	s.Start(r.sch.Now())
	return s
}

func mbps(s *transport.Sender, dur sim.Time) float64 {
	return float64(s.DeliveredBytes) * 8 / dur.Seconds() / 1e6
}

// meanQueueDelayMs measures average queueing delay over the run using a
// link tap.
func (r *rig) tapDelay() *struct {
	sum float64
	n   int
} {
	acc := &struct {
		sum float64
		n   int
	}{}
	r.onDeliver(func(p *netem.Packet, now sim.Time) {
		acc.sum += p.QueueDelay.Millis()
		acc.n++
	})
	return acc
}

func (a *rig) run(d sim.Time) { a.sch.RunUntil(d) }

func TestSoloUtilization(t *testing.T) {
	cases := []struct {
		name    string
		mk      func() transport.Controller
		minMbps float64
	}{
		{"reno", func() transport.Controller { return NewReno() }, 42},
		{"cubic", func() transport.Controller { return NewCubic() }, 42},
		{"vegas", func() transport.Controller { return NewVegas() }, 40},
		{"copa", func() transport.Controller { return NewCopa() }, 38},
		{"copa-default", func() transport.Controller { return NewCopaDefaultMode() }, 38},
		{"bbr", func() transport.Controller { return NewBBR() }, 40},
		{"compound", func() transport.Controller { return NewCompound() }, 42},
		{"vivace", func() transport.Controller { return NewVivace() }, 25},
		{"fixed", func() transport.Controller { return NewFixedWindow(200) }, 42},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newRig(48, 100*sim.Millisecond)
			s := r.addFlow(c.mk(), 50*sim.Millisecond)
			dur := 30 * sim.Second
			r.run(dur)
			got := mbps(s, dur)
			if got < c.minMbps {
				t.Fatalf("%s solo throughput = %.1f Mbit/s, want >= %.0f", c.name, got, c.minMbps)
			}
			if got > 48.5 {
				t.Fatalf("%s throughput %.1f exceeds link rate", c.name, got)
			}
		})
	}
}

func TestCubicPairFairness(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	a := r.addFlow(NewCubic(), 50*sim.Millisecond)
	b := r.addFlow(NewCubic(), 50*sim.Millisecond)
	dur := 60 * sim.Second
	r.run(dur)
	ra, rb := mbps(a, dur), mbps(b, dur)
	total := ra + rb
	if total < 85 {
		t.Fatalf("pair total = %.1f, want ~96", total)
	}
	jain := (ra + rb) * (ra + rb) / (2 * (ra*ra + rb*rb))
	if jain < 0.85 {
		t.Fatalf("Jain index = %.3f (%.1f vs %.1f)", jain, ra, rb)
	}
}

func TestVegasLowDelayAlone(t *testing.T) {
	r := newRig(48, 100*sim.Millisecond)
	acc := r.tapDelay()
	r.addFlow(NewVegas(), 50*sim.Millisecond)
	r.run(30 * sim.Second)
	mean := acc.sum / float64(acc.n)
	if mean > 15 {
		t.Fatalf("Vegas mean queueing delay = %.1f ms, want < 15", mean)
	}
}

func TestCubicHighDelayAlone(t *testing.T) {
	// Cubic fills the 100 ms buffer: mean queueing delay far above Vegas.
	r := newRig(48, 100*sim.Millisecond)
	acc := r.tapDelay()
	r.addFlow(NewCubic(), 50*sim.Millisecond)
	r.run(30 * sim.Second)
	mean := acc.sum / float64(acc.n)
	if mean < 30 {
		t.Fatalf("Cubic mean queueing delay = %.1f ms, expected bufferbloat", mean)
	}
}

// The motivating pathology (§1): a delay-controlling scheme starves when
// sharing with Cubic.
func TestVegasStarvesAgainstCubic(t *testing.T) {
	r := newRig(48, 100*sim.Millisecond)
	v := r.addFlow(NewVegas(), 50*sim.Millisecond)
	c := r.addFlow(NewCubic(), 50*sim.Millisecond)
	dur := 60 * sim.Second
	r.run(dur)
	rv, rc := mbps(v, dur), mbps(c, dur)
	if rv > rc/2 {
		t.Fatalf("Vegas %.1f vs Cubic %.1f: expected starvation", rv, rc)
	}
}

func TestCopaDefaultModeStarvesButFullCopaCompetes(t *testing.T) {
	dur := 60 * sim.Second
	// Default-only Copa against Cubic: starves like Vegas.
	r1 := newRig(48, 100*sim.Millisecond)
	cd := r1.addFlow(NewCopaDefaultMode(), 50*sim.Millisecond)
	cu1 := r1.addFlow(NewCubic(), 50*sim.Millisecond)
	r1.run(dur)
	if mbps(cd, dur) > mbps(cu1, dur)*0.6 {
		t.Fatalf("Copa default vs Cubic: %.1f vs %.1f, expected starvation",
			mbps(cd, dur), mbps(cu1, dur))
	}
	// Full Copa (mode switching) against Cubic: gets a usable share.
	r2 := newRig(48, 100*sim.Millisecond)
	cf := r2.addFlow(NewCopa(), 50*sim.Millisecond)
	cu2 := r2.addFlow(NewCubic(), 50*sim.Millisecond)
	r2.run(dur)
	if mbps(cf, dur) < 8 {
		t.Fatalf("full Copa vs Cubic got only %.1f Mbit/s (cubic %.1f)",
			mbps(cf, dur), mbps(cu2, dur))
	}
}

func TestCopaModeDetector(t *testing.T) {
	// Alone, Copa should be in default mode most of the time.
	r := newRig(48, 100*sim.Millisecond)
	copa := NewCopa()
	r.addFlow(copa, 50*sim.Millisecond)
	r.run(30 * sim.Second)
	if copa.Competitive() {
		t.Fatal("Copa alone ended in competitive mode")
	}
	// Against Cubic it should have switched to competitive mode.
	r2 := newRig(48, 100*sim.Millisecond)
	copa2 := NewCopa()
	r2.addFlow(copa2, 50*sim.Millisecond)
	r2.addFlow(NewCubic(), 50*sim.Millisecond)
	r2.run(30 * sim.Second)
	if !copa2.Competitive() {
		t.Fatal("Copa vs Cubic did not enter competitive mode")
	}
}

func TestBBRKeepsQueueBelowCubic(t *testing.T) {
	rB := newRig(48, 100*sim.Millisecond)
	accB := rB.tapDelay()
	rB.addFlow(NewBBR(), 50*sim.Millisecond)
	rB.run(30 * sim.Second)
	meanBBR := accB.sum / float64(accB.n)

	rC := newRig(48, 100*sim.Millisecond)
	accC := rC.tapDelay()
	rC.addFlow(NewCubic(), 50*sim.Millisecond)
	rC.run(30 * sim.Second)
	meanCubic := accC.sum / float64(accC.n)
	if meanBBR > meanCubic {
		t.Fatalf("BBR solo delay %.1f ms >= Cubic %.1f ms", meanBBR, meanCubic)
	}
}

func TestFixedWindowThroughputMatchesWindow(t *testing.T) {
	// 40 packets on a 50 ms RTT: 40*1500*8/0.05 = 9.6 Mbit/s on an idle
	// fat link.
	r := newRig(96, 100*sim.Millisecond)
	s := r.addFlow(NewFixedWindow(40), 50*sim.Millisecond)
	dur := 20 * sim.Second
	r.run(dur)
	got := mbps(s, dur)
	if got < 8.8 || got > 10.2 {
		t.Fatalf("fixed-window throughput = %.2f, want ~9.6", got)
	}
}

func TestRenoAIMDSawtooth(t *testing.T) {
	// Reno alone with a small buffer must cycle: losses happen, window
	// halves, recovers. We simply check losses occurred and the flow
	// still achieved decent utilization.
	r := newRig(24, 25*sim.Millisecond)
	reno := NewReno()
	s := r.addFlow(reno, 50*sim.Millisecond)
	dur := 60 * sim.Second
	r.run(dur)
	if s.LostPackets == 0 {
		t.Fatal("Reno never lost a packet with a 0.5 BDP buffer")
	}
	got := mbps(s, dur)
	if got < 24*0.70 {
		t.Fatalf("Reno throughput = %.1f, want >= 70%% of 24", got)
	}
}

// TestRenoSawtoothBelowTheory pins one backlogged Reno flow's utilization
// on a drop-tail buffer of b·BDP (testdata/reno-sawtooth.golden, to three
// decimals) as a known deviation from the single-flow sawtooth, U(b) =
// 3(1+b)²/(4(1+b+b²)) (Appenzeller, Keslassy and McKeown, "Sizing Router
// Buffers", SIGCOMM 2004): each must read below theory. The gap is the
// time-based congestion gate: a second drop of the same episode is
// detected one srtt after the first and halves the window again. The
// recovery-episode rule of RFC 6582 (ROADMAP item 10) is what closes it;
// that fix moves these pins up toward the theory column.
func TestRenoSawtoothBelowTheory(t *testing.T) {
	const rtt = 50 * sim.Millisecond
	cases := []struct {
		b, theory float64
	}{
		{0.1, 0.818},
		{0.25, 0.893},
		{0.5, 0.964},
		{1, 1.000},
	}
	var pins strings.Builder
	for _, c := range cases {
		u := 3 * (1 + c.b) * (1 + c.b) / (4 * (1 + c.b + c.b*c.b))
		if got := fmt.Sprintf("%.3f", u); got != fmt.Sprintf("%.3f", c.theory) {
			t.Fatalf("b=%v: U(b) = %s, table says %.3f", c.b, got, c.theory)
		}
		r := newRig(96, sim.Time(c.b*float64(rtt)))
		s := r.addFlow(NewReno(), rtt)
		dur := 120 * sim.Second
		r.run(dur)
		util := mbps(s, dur) / 96
		fmt.Fprintf(&pins, "b=%v utilization\t%.3f\n", c.b, util)
		if util >= u {
			t.Errorf("b=%v: utilization %.3f not below theory %.3f", c.b, util, u)
		}
	}
	checkGolden(t, "testdata/reno-sawtooth.golden", pins.String())
}

func TestRateEstimator(t *testing.T) {
	re := NewRateEstimator(sim.Second)
	// 1000 bytes every 10 ms = 800 kbit/s.
	var delivered uint64
	for i := 0; i <= 100; i++ {
		delivered += 1000
		re.Add(sim.Time(i)*10*sim.Millisecond, delivered)
	}
	got := re.RateBps()
	if got < 790e3 || got > 810e3 {
		t.Fatalf("rate = %v, want ~800k", got)
	}
}

// TestRateEstimatorCompaction holds the estimator's ring to a slice
// trimmed from the front (same RateBps after every Add, over bursty and
// sparse arrivals), and checks that a long-lived estimator stops
// allocating once its ring fits the window.
func TestRateEstimatorCompaction(t *testing.T) {
	re := NewRateEstimator(200 * sim.Millisecond)
	var ref []rateSample
	rng := sim.NewRand(3)
	var now sim.Time
	var delivered uint64
	step := func() {
		gap := rng.ExpTime(2 * sim.Millisecond)
		if rng.Intn(50) == 0 {
			gap += sim.Time(rng.Intn(500)) * sim.Millisecond // idle past the window
		}
		now += gap
		delivered += uint64(rng.Intn(3000))
		re.Add(now, delivered)
	}
	for i := 0; i < 20000; i++ {
		step()
		ref = append(ref, rateSample{now, delivered})
		for len(ref) > 1 && ref[0].t < now-200*sim.Millisecond {
			ref = ref[1:]
		}
		want := 0.0
		if dt := (now - ref[0].t).Seconds(); len(ref) >= 2 && dt > 0 {
			want = float64(delivered-ref[0].delivered) * 8 / dt
		}
		if got := re.RateBps(); got != want {
			t.Fatalf("add %d: RateBps = %v, want %v", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(5000, step); allocs > 0 {
		t.Fatalf("warm RateEstimator.Add allocates %.3f/op, want 0", allocs)
	}
}

func TestVivaceDoesNotAckClock(t *testing.T) {
	// Vivace's rate changes only at MI boundaries; verify Control()
	// returns a pacing rate (rate-based, not window-based).
	v := NewVivace()
	r := newRig(48, 100*sim.Millisecond)
	r.addFlow(v, 50*sim.Millisecond)
	r.run(5 * sim.Second)
	tr := v.Control()
	if tr.PaceBps <= 0 {
		t.Fatal("Vivace must be rate-based")
	}
}

func TestCompoundDelayWindowRetreats(t *testing.T) {
	// Alone on a big-buffer link Compound grows dwnd early (queue empty)
	// and shrinks it as queueing builds; eventually dwnd should be small
	// while cwnd carries the rate.
	r := newRig(48, 200*sim.Millisecond)
	comp := NewCompound()
	r.addFlow(comp, 50*sim.Millisecond)
	r.run(40 * sim.Second)
	if comp.dwnd > 100*1500 {
		t.Fatalf("dwnd = %.0f bytes still huge after queue built", comp.dwnd)
	}
}
