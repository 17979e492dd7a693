package exp

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/metrics"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
	"nimbus/internal/workload"
)

// The one scoring cell behind the detector-accuracy experiments: how a
// cross-traffic kind becomes senders, how mode decisions are scored, how
// a described cell is run. Rng.Split draws from the parent stream and
// same-time events run in arming order, so the order of calls here is
// output: flow under test, cross sources in list order, scorer last.

// crossSender starts one backlogged cross flow. label names its random
// stream.
func (r *Rig) crossSender(label, route string, ctrl transport.Controller, rtt, start sim.Time) *transport.Sender {
	s := transport.NewSenderOn(r.Net, route, rtt, ctrl, transport.Backlogged{}, r.Rng.Split(label))
	s.Start(start)
	return s
}

// cubicCross runs n backlogged Cubic cross flows over [start, stop);
// stop 0 means to the end of the run.
func (r *Rig) cubicCross(n int, rtt, start, stop sim.Time) {
	ss := make([]*transport.Sender, n)
	for i := range ss {
		ss[i] = r.crossSender(fmt.Sprintf("ccross%d", i), "", cc.NewCubic(), rtt, start)
	}
	if stop > 0 {
		r.Sch.At(stop, func() {
			for _, s := range ss {
				s.Stop()
			}
		})
	}
}

// crossPoisson starts a Poisson raw source at mean rateBps.
func (r *Rig) crossPoisson(route string, rtt sim.Time, rateBps float64, start sim.Time) *crosstraffic.RawSource {
	src := crosstraffic.NewPoissonOn(r.Net, route, rtt, rateBps, r.Rng.Split("poisson"))
	src.Start(start)
	return src
}

// crossCBR starts a constant-bit-rate raw source.
func (r *Rig) crossCBR(route string, rtt sim.Time, rateBps float64, start sim.Time) *crosstraffic.RawSource {
	src := crosstraffic.NewCBROn(r.Net, route, rtt, rateBps)
	src.Start(start)
	return src
}

// crossTrace starts the paper's WAN cross traffic (§8.1) at an offered
// load: Poisson arrivals of finite Cubic flows with heavy-tailed sizes,
// on the session generator.
func (r *Rig) crossTrace(route string, rtt sim.Time, loadBps float64) *workload.Generator {
	sp := workload.MustParseSpec("bulk")
	sp.Load = loadBps / 1e6
	g := &workload.Generator{
		Net: r.Net, Rng: r.Rng.Split("trace"), Spec: sp, RTT: rtt, Route: route, MuBps: r.MuBps,
		Sizes: workload.HeavyTailedSizes{},
		// A stream of its own: left nil, Start would split one off the
		// arrival stream and shift every arrival.
		Stats: workload.NewStats(sim.NewRand(r.Cfg.Seed)),
	}
	if err := g.Start(0); err != nil {
		panic(err)
	}
	return g
}

// crossVideo starts a DASH client over Cubic on the 4K or the 1080p
// ladder.
func (r *Rig) crossVideo(route string, rtt sim.Time, uhd bool) *crosstraffic.VideoClient {
	ladder := crosstraffic.Ladder1080p
	if uhd {
		ladder = crosstraffic.Ladder4K
	}
	v := &crosstraffic.VideoClient{
		Net: r.Net, Rng: r.Rng.Split("video"), RTT: rtt, Route: route,
		Ladder: ladder,
		NewCC:  func() transport.Controller { return cc.NewCubic() },
	}
	v.Start(0)
	return v
}

// crossSpec describes one cross-traffic source started at time 0.
type crossSpec struct {
	// kind is "poisson", "cbr", "trace", "video4k", "video1080p", or a
	// scheme spec ("reno", "fixedwindow(cwnd=160)") run as a backlogged
	// sender.
	kind  string
	label string  // the sender's random-stream label (scheme kinds only)
	rate  float64 // bits/s (poisson, cbr, trace)
	rtt   sim.Time
	route string
	// probed attaches a scheme kind through AddFlowOn, named label: the
	// probe's recorder streams are then part of the Split order (fig06's
	// rate-pinned elastic component).
	probed bool
}

// addCross is the one place a cross-traffic kind becomes senders.
// Unknown kinds panic, as unknown scheme specs do.
func (r *Rig) addCross(c crossSpec) {
	switch c.kind {
	case "poisson":
		r.crossPoisson(c.route, c.rtt, c.rate, 0)
	case "cbr":
		r.crossCBR(c.route, c.rtt, c.rate, 0)
	case "trace":
		r.crossTrace(c.route, c.rtt, c.rate)
	case "video4k", "video1080p":
		r.crossVideo(c.route, c.rtt, c.kind == "video4k")
	default:
		s := MustScheme(c.kind, r.MuBps)
		if c.probed {
			s.Name = c.label
			r.AddFlowOn(c.route, s, c.rtt, 0, transport.Backlogged{})
			return
		}
		r.crossSender(c.label, c.route, s.Ctrl, c.rtt, 0)
	}
}

// mixCross is the elastic|inelastic|mix vocabulary of the accuracy
// sweeps and its ground truth: NewReno flows (one per label) for
// "elastic", Poisson at pureBps for "inelastic", and NewReno flows plus
// Poisson at mixBps for "mix", which counts as elastic.
func mixCross(mix string, rtt sim.Time, elasticLabels, mixLabels []string, pureBps, mixBps float64) (cross []crossSpec, elastic bool) {
	renos := func(labels []string) []crossSpec {
		var out []crossSpec
		for _, l := range labels {
			out = append(out, crossSpec{kind: "reno", label: l, rtt: rtt})
		}
		return out
	}
	switch mix {
	case "elastic":
		return renos(elasticLabels), true
	case "inelastic":
		return []crossSpec{{kind: "poisson", rate: pureBps, rtt: rtt}}, false
	case "mix":
		return append(renos(mixLabels), crossSpec{kind: "poisson", rate: mixBps, rtt: rtt}), true
	}
	panic("exp: unknown mix " + mix)
}

// onTick chains an observer onto a Nimbus flow's telemetry hook, after
// any observer already there.
func onTick(n *core.Nimbus, f func(core.Telemetry)) {
	prev := n.OnTick
	n.OnTick = func(t core.Telemetry) {
		if prev != nil {
			prev(t)
		}
		f(t)
	}
}

// scoreModes scores a mode-switching scheme's decisions against ground
// truth ("is the cross traffic elastic right now") from warmup on:
// Nimbus schemes on every detector tick, Copa by sampling its mode every
// 10 ms. Schemes without modes return nil. The Copa sampler is a
// scheduler event, so scoring Copa adds to the run's event count.
func scoreModes(r *Rig, s Scheme, truth func(now sim.Time) bool, warmup sim.Time) *metrics.AccuracyTracker {
	acc := &metrics.AccuracyTracker{Warmup: warmup}
	switch {
	case s.Nimbus != nil:
		onTick(s.Nimbus, func(t core.Telemetry) {
			acc.Observe(t.Now, t.Mode == core.ModeCompetitive, truth(t.Now))
		})
	case s.Copa != nil:
		var tick func()
		tick = func() {
			now := r.Sch.Now()
			acc.Observe(now, s.Copa.Competitive(), truth(now))
			r.Sch.AfterFunc(10*sim.Millisecond, tick)
		}
		r.Sch.AfterFunc(10*sim.Millisecond, tick)
	default:
		return nil
	}
	return acc
}

// scoreWarmup is the figures' warm-up: the detector's 5 s window has to
// fill and the flows converge before decisions count. (RunScenario,
// whose horizons can be shorter than this, uses a quarter of its own.)
const scoreWarmup = 10 * sim.Second

// scoreCell describes one scored run, less the scheme under test: the
// rig, the cross traffic, and the cross traffic's elasticity as ground
// truth for the whole run.
type scoreCell struct {
	// net is the emulated network; a zero RateMbps, RTT or Buffer means
	// the standard rig's 96 Mbit/s, 50 ms, 100 ms.
	net NetConfig
	// cross sources start at 0, in order; a zero rtt means the rig's.
	cross   []crossSpec
	elastic bool
}

// scoreResult is what a scored run leaves behind.
type scoreResult struct {
	probe *FlowProbe
	// acc is nil for schemes without modes.
	acc *metrics.AccuracyTracker
	// etas are a Nimbus scheme's η samples after the warm-up, one per
	// tick with a full detector window; elasticEtas counts those at or
	// above the detector's threshold.
	etas        []float64
	elasticEtas int
}

// run builds the cell with the scheme as a backlogged flow at the rig's
// RTT and runs it to the horizon.
func (c scoreCell) run(scheme spec.Spec, seed int64, dur sim.Time) *scoreResult {
	cfg := c.net
	cfg.Seed = seed
	if cfg.RateMbps == 0 {
		cfg.RateMbps = 96
	}
	if cfg.RTT == 0 {
		cfg.RTT = 50 * sim.Millisecond
	}
	r := NewRig(cfg)
	s := MustBuildScheme(scheme, r.MuBps)
	res := &scoreResult{probe: r.AddFlow(s, cfg.RTT, 0)}
	for _, x := range c.cross {
		if x.rtt == 0 {
			x.rtt = cfg.RTT
		}
		r.addCross(x)
	}
	res.acc = scoreModes(r, s, func(sim.Time) bool { return c.elastic }, scoreWarmup)
	if n := s.Nimbus; n != nil {
		onTick(n, func(t core.Telemetry) {
			if t.Now <= scoreWarmup || !t.EtaReady {
				return
			}
			res.etas = append(res.etas, t.Eta)
			if t.Eta >= n.Detector().Threshold() {
				res.elasticEtas++
			}
		})
	}
	r.Sch.RunUntil(dur)
	return res
}

// etaStats reduces the η samples to their median and the fraction
// classified elastic; both are 0 without samples.
func (res *scoreResult) etaStats() (median, fracElastic float64) {
	if len(res.etas) == 0 {
		return 0, 0
	}
	return stats.Median(res.etas), float64(res.elasticEtas) / float64(len(res.etas))
}
