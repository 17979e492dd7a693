package core

import (
	"testing"

	"nimbus/internal/cc"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

type rig struct {
	sch  *sim.Scheduler
	link *netem.Link
	net  *netem.Topology
	rng  *sim.Rand
	mu   float64
}

func newRig(rateMbps float64, buf sim.Time) *rig {
	sch := sim.NewScheduler()
	rate := rateMbps * 1e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(netem.BufferBytesForDelay(rate, buf)))
	return &rig{sch: sch, link: link, net: netem.NewNetwork(sch, link), rng: sim.NewRand(11), mu: rate}
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

func (r *rig) nimbus(cfg Config, rtt sim.Time) (*Nimbus, *transport.Sender) {
	if cfg.Mu == nil {
		cfg.Mu = Oracle{Rate: r.mu}
	}
	if cfg.Competitive == nil {
		cfg.Competitive = cc.NewCubic()
	}
	n := NewNimbus(cfg)
	s := transport.NewSender(r.net, rtt, n, transport.Backlogged{}, r.rng.Split("nimbus"))
	s.Start(0)
	return n, s
}

func (r *rig) cubic(rtt sim.Time, start sim.Time) *transport.Sender {
	s := transport.NewSender(r.net, rtt, cc.NewCubic(), transport.Backlogged{}, r.rng.Split("cubic"))
	s.Start(start)
	return s
}

func mbpsOver(s *transport.Sender, dur sim.Time) float64 {
	return float64(s.DeliveredBytes) * 8 / dur.Seconds() / 1e6
}

// modeFraction runs telemetry accounting: fraction of ticks (after warmup)
// spent in competitive mode.
type modeAccount struct {
	comp, total int
}

func attach(n *Nimbus, warmup sim.Time) *modeAccount {
	acc := &modeAccount{}
	prev := n.OnTick
	n.OnTick = func(t Telemetry) {
		if prev != nil {
			prev(t)
		}
		if t.Now < warmup {
			return
		}
		acc.total++
		if t.Mode == ModeCompetitive {
			acc.comp++
		}
	}
	return acc
}

func (m *modeAccount) fracCompetitive() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.comp) / float64(m.total)
}

func TestNimbusAloneStaysDelayMode(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	n, s := r.nimbus(Config{}, 50*sim.Millisecond)
	acc := attach(n, 10*sim.Second)
	var delaySum float64
	var delayN int
	r.onDeliver(func(p *netem.Packet, now sim.Time) {
		if now > 10*sim.Second {
			delaySum += p.QueueDelay.Millis()
			delayN++
		}
	})
	dur := 60 * sim.Second
	r.sch.RunUntil(dur)
	if got := mbpsOver(s, dur); got < 80 {
		t.Fatalf("Nimbus solo throughput = %.1f, want >= 80", got)
	}
	if f := acc.fracCompetitive(); f > 0.2 {
		t.Fatalf("Nimbus alone spent %.0f%% in competitive mode", f*100)
	}
	if mean := delaySum / float64(delayN); mean > 30 {
		t.Fatalf("Nimbus solo mean queueing delay = %.1f ms, want low", mean)
	}
}

func TestNimbusDetectsElasticCross(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	n, s := r.nimbus(Config{}, 50*sim.Millisecond)
	r.cubic(50*sim.Millisecond, 0)
	acc := attach(n, 10*sim.Second)
	dur := 60 * sim.Second
	r.sch.RunUntil(dur)
	// Sustained competition cycles: when Nimbus's Cubic periodically
	// crushes the cross flow, z genuinely collapses and the detector
	// (correctly) reports no elastic traffic for a few seconds; the
	// paper's Fig 8 run shows such intervals too.
	if f := acc.fracCompetitive(); f < 0.6 {
		t.Fatalf("vs Cubic: competitive fraction = %.2f, want >= 0.6", f)
	}
	// Fair share is 48; Nimbus must get a substantial share.
	if got := mbpsOver(s, dur); got < 30 {
		t.Fatalf("Nimbus vs Cubic throughput = %.1f, want >= 30", got)
	}
}

func TestNimbusDetectsInelasticCross(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	n, s := r.nimbus(Config{}, 50*sim.Millisecond)
	ct := crosstraffic.NewPoisson(r.net, 40*sim.Millisecond, 48e6, r.rng.Split("poisson"))
	ct.Start(0)
	acc := attach(n, 10*sim.Second)
	var delaySum float64
	var delayN int
	r.onDeliver(func(p *netem.Packet, now sim.Time) {
		if now > 10*sim.Second {
			delaySum += p.QueueDelay.Millis()
			delayN++
		}
	})
	dur := 60 * sim.Second
	r.sch.RunUntil(dur)
	if f := acc.fracCompetitive(); f > 0.15 {
		t.Fatalf("vs Poisson: competitive fraction = %.2f, want <= 0.15", f)
	}
	// Nimbus should claim most of the remaining ~48 Mbit/s.
	if got := mbpsOver(s, dur); got < 35 {
		t.Fatalf("Nimbus vs Poisson throughput = %.1f, want >= 35", got)
	}
	if mean := delaySum / float64(delayN); mean > 35 {
		t.Fatalf("mean queueing delay vs inelastic = %.1f ms, want low", mean)
	}
}

// The Fig 1 scenario: elastic phase then inelastic phase; Nimbus must
// switch modes in both directions.
func TestNimbusModeSwitchingSequence(t *testing.T) {
	r := newRig(48, 100*sim.Millisecond)
	n, _ := r.nimbus(Config{}, 50*sim.Millisecond)
	// Elastic: Cubic from 20 s to 80 s.
	cu := transport.NewSender(r.net, 50*sim.Millisecond, cc.NewCubic(), transport.Backlogged{}, r.rng.Split("cu"))
	cu.Start(20 * sim.Second)
	r.sch.AtFunc(80*sim.Second, cu.Stop)
	// Inelastic: 24 Mbit/s Poisson from 90 s to 150 s.
	po := crosstraffic.NewPoisson(r.net, 40*sim.Millisecond, 24e6, r.rng.Split("po"))
	po.Start(90 * sim.Second)
	r.sch.AtFunc(150*sim.Second, func() { po.Stop() })

	elasticAcc := &modeAccount{}
	inelasticAcc := &modeAccount{}
	n.OnTick = func(tel Telemetry) {
		switch {
		case tel.Now > 30*sim.Second && tel.Now < 80*sim.Second:
			elasticAcc.total++
			if tel.Mode == ModeCompetitive {
				elasticAcc.comp++
			}
		case tel.Now > 100*sim.Second && tel.Now < 150*sim.Second:
			inelasticAcc.total++
			if tel.Mode == ModeCompetitive {
				inelasticAcc.comp++
			}
		}
	}
	r.sch.RunUntil(160 * sim.Second)
	if f := elasticAcc.fracCompetitive(); f < 0.6 {
		t.Fatalf("elastic phase competitive fraction = %.2f, want >= 0.6", f)
	}
	if f := inelasticAcc.fracCompetitive(); f > 0.3 {
		t.Fatalf("inelastic phase competitive fraction = %.2f, want <= 0.3", f)
	}
	if n.ModeSwitches == 0 {
		t.Fatal("no mode switches recorded")
	}
}

func TestNimbusEtaSeparation(t *testing.T) {
	// η against a Cubic flow must be well above η against Poisson.
	etaFor := func(elastic bool) float64 {
		r := newRig(96, 100*sim.Millisecond)
		n, _ := r.nimbus(Config{}, 50*sim.Millisecond)
		if elastic {
			r.cubic(50*sim.Millisecond, 0)
		} else {
			crosstraffic.NewPoisson(r.net, 40*sim.Millisecond, 48e6, r.rng.Split("p")).Start(0)
		}
		sum, cnt := 0.0, 0
		n.OnTick = func(tel Telemetry) {
			if tel.Now > 20*sim.Second && tel.EtaReady {
				sum += tel.Eta
				cnt++
			}
		}
		r.sch.RunUntil(40 * sim.Second)
		return sum / float64(cnt)
	}
	el := etaFor(true)
	inel := etaFor(false)
	if el < 2 {
		t.Fatalf("mean eta vs Cubic = %.2f, want >= 2", el)
	}
	if inel > 2 {
		t.Fatalf("mean eta vs Poisson = %.2f, want < 2", inel)
	}
	if el < 2*inel {
		t.Fatalf("eta separation too small: elastic %.2f vs inelastic %.2f", el, inel)
	}
}

func TestNimbusZEstimateTracksCrossRate(t *testing.T) {
	// §3.1: the z estimator error should be small against a known CBR.
	r := newRig(96, 100*sim.Millisecond)
	n, _ := r.nimbus(Config{}, 50*sim.Millisecond)
	cbr := crosstraffic.NewCBR(r.net, 40*sim.Millisecond, 40e6)
	cbr.Start(0)
	var errSum float64
	var cnt int
	n.OnTick = func(tel Telemetry) {
		if tel.Now > 15*sim.Second && tel.Z > 0 {
			rel := (tel.Z - 40e6) / 40e6
			if rel < 0 {
				rel = -rel
			}
			errSum += rel
			cnt++
		}
	}
	r.sch.RunUntil(45 * sim.Second)
	if cnt == 0 {
		t.Fatal("no z estimates")
	}
	if mean := errSum / float64(cnt); mean > 0.25 {
		t.Fatalf("mean relative z error = %.2f, want < 0.25", mean)
	}
}

func TestNimbusWithVegasDelayAlg(t *testing.T) {
	// Nimbus can run Vegas as its delay algorithm (§4.1).
	r := newRig(96, 100*sim.Millisecond)
	_, s := r.nimbus(Config{Delay: cc.NewVegas()}, 50*sim.Millisecond)
	dur := 40 * sim.Second
	r.sch.RunUntil(dur)
	if got := mbpsOver(s, dur); got < 70 {
		t.Fatalf("Nimbus(Vegas) solo throughput = %.1f", got)
	}
}

func TestNimbusWithCopaDelayAlg(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	_, s := r.nimbus(Config{Delay: cc.NewCopaDefaultMode()}, 50*sim.Millisecond)
	dur := 40 * sim.Second
	r.sch.RunUntil(dur)
	if got := mbpsOver(s, dur); got < 70 {
		t.Fatalf("Nimbus(Copa) solo throughput = %.1f", got)
	}
}

func TestNimbusWithRenoCompetitive(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	n, s := r.nimbus(Config{Competitive: cc.NewReno()}, 50*sim.Millisecond)
	r.cubic(50*sim.Millisecond, 0)
	acc := attach(n, 10*sim.Second)
	dur := 60 * sim.Second
	r.sch.RunUntil(dur)
	if f := acc.fracCompetitive(); f < 0.7 {
		t.Fatalf("competitive fraction with Reno = %.2f", f)
	}
	// NewReno is genuinely less aggressive than Cubic at this BDP; the
	// paper (§7) notes unfairness when the competitive algorithm differs
	// from the cross traffic's. We only require a usable share.
	if got := mbpsOver(s, dur); got < 12 {
		t.Fatalf("Nimbus(Reno) vs Cubic = %.1f Mbit/s", got)
	}
}

func TestNimbusMuEstimatorMode(t *testing.T) {
	// With the BBR-style µ estimator instead of the oracle, Nimbus should
	// still fill the link alone and stay in delay mode.
	r := newRig(96, 100*sim.Millisecond)
	n, s := r.nimbus(Config{Mu: NewMaxReceiveRate(0)}, 50*sim.Millisecond)
	acc := attach(n, 15*sim.Second)
	dur := 60 * sim.Second
	r.sch.RunUntil(dur)
	if got := mbpsOver(s, dur); got < 60 {
		t.Fatalf("throughput with estimated mu = %.1f", got)
	}
	if f := acc.fracCompetitive(); f > 0.3 {
		t.Fatalf("estimated-mu solo competitive fraction = %.2f", f)
	}
}

func TestMultiFlowElectsOnePulser(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	var flows []*Nimbus
	var senders []*transport.Sender
	for i := 0; i < 3; i++ {
		n, s := r.nimbus(Config{MultiFlow: true}, 50*sim.Millisecond)
		flows = append(flows, n)
		senders = append(senders, s)
	}
	// Count pulsers over time after convergence.
	samples, multi, zero := 0, 0, 0
	var probe func()
	probe = func() {
		if r.sch.Now() > 30*sim.Second {
			pulsers := 0
			for _, n := range flows {
				if n.Role() == RolePulser {
					pulsers++
				}
			}
			samples++
			if pulsers > 1 {
				multi++
			}
			if pulsers == 0 {
				zero++
			}
		}
		r.sch.AfterFunc(100*sim.Millisecond, probe)
	}
	r.sch.AfterFunc(0, probe)
	dur := 90 * sim.Second
	r.sch.RunUntil(dur)
	if samples == 0 {
		t.Fatal("no samples")
	}
	if frac := float64(multi) / float64(samples); frac > 0.2 {
		t.Fatalf("multiple pulsers %d%% of the time", int(frac*100))
	}
	if frac := float64(zero) / float64(samples); frac > 0.5 {
		t.Fatalf("no pulser %d%% of the time", int(frac*100))
	}
	// Fairness: all three flows should get a reasonable share.
	total := 0.0
	for _, s := range senders {
		total += mbpsOver(s, dur)
	}
	if total < 70 {
		t.Fatalf("aggregate throughput = %.1f", total)
	}
	for i, s := range senders {
		if got := mbpsOver(s, dur); got < total/3*0.4 {
			t.Fatalf("flow %d got %.1f of %.1f total", i, got, total)
		}
	}
}

func TestMultiFlowStaysDelayModeWithoutCross(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	var accs []*modeAccount
	for i := 0; i < 3; i++ {
		n, _ := r.nimbus(Config{MultiFlow: true}, 50*sim.Millisecond)
		accs = append(accs, attach(n, 30*sim.Second))
	}
	r.sch.RunUntil(90 * sim.Second)
	for i, acc := range accs {
		if f := acc.fracCompetitive(); f > 0.35 {
			t.Fatalf("flow %d spent %.0f%% in competitive mode with no cross traffic", i, f*100)
		}
	}
}

func TestMultiFlowFollowsPulserToCompetitive(t *testing.T) {
	r := newRig(96, 100*sim.Millisecond)
	var accs []*modeAccount
	for i := 0; i < 2; i++ {
		n, _ := r.nimbus(Config{MultiFlow: true}, 50*sim.Millisecond)
		accs = append(accs, attach(n, 40*sim.Second))
	}
	r.cubic(50*sim.Millisecond, 20*sim.Second)
	r.sch.RunUntil(90 * sim.Second)
	for i, acc := range accs {
		if f := acc.fracCompetitive(); f < 0.5 {
			t.Fatalf("flow %d competitive fraction = %.2f vs elastic cross", i, f)
		}
	}
}
