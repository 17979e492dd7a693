package exp

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
	"nimbus/internal/workload"
)

// The one cell builder. Every run with a flow under test — a sweep cell
// (BuildScenario: RunScenario, nimbus-sim's single run), an accuracy
// figure's cell (scoreCell.run), a scripted figure's scenario — is a
// scoreCell, and scoreCell.build alone turns one into a rig with flows,
// cross traffic and churn; the caller instruments the built Cell (probes,
// taps, OnTick, scoreModes, a script) and runs it. Rng.Split draws from
// the parent stream and same-time events run in arming order, so build's
// order is output: flows, a flow mix's delay recorder, cross sources in
// list order (each started, its stop armed), the churn generator, then
// the caller's: sweeps score Nimbus only (scoring Copa arms a sampler
// event and would move every copa cell's event count and cached result),
// the figures score Copa too. Also here: how a cross-traffic kind becomes
// a source and how mode decisions are scored.

// crossSpec describes one cross-traffic source and when it runs.
type crossSpec struct {
	// kind is "poisson", "cbr", "trace", "video4k", "video1080p", or a
	// scheme spec ("reno", "fixedwindow(cwnd=160)") run as a backlogged
	// sender.
	kind  string
	label string  // the sender's random-stream label (scheme kinds only)
	rate  float64 // bits/s (poisson, cbr, trace)
	rtt   sim.Time
	route string
	// start and stop bound the source to [start, stop); stop 0 runs it to
	// the end. A trace generator's stop ends its arrivals, and the flows
	// already running finish.
	start, stop sim.Time
	// probed attaches a scheme kind through AddFlowOn, named label: the
	// probe's recorder streams are then part of the Split order (fig06's
	// rate-pinned elastic component).
	probed bool
}

// cubicSpecs are n backlogged Cubic cross flows at the rig's RTT over
// [start, stop), their streams labelled ccross0, ccross1, ...
func cubicSpecs(n int, start, stop sim.Time) []crossSpec {
	out := make([]crossSpec, n)
	for i := range out {
		out[i] = crossSpec{kind: "cubic", label: fmt.Sprintf("ccross%d", i), start: start, stop: stop}
	}
	return out
}

// crossSource is a started source as its constructor returned it: a
// *transport.Sender, *crosstraffic.RawSource, VideoClient or Fluid, or a
// *workload.Generator.
type crossSource interface{ Stop() }

// addCross is the one place a cross-traffic kind becomes a source or, on
// a fluid rig, a rate process (the kinds with a fluid model): it starts
// the source at c.start and arms its stop. Unknown kinds panic, as
// unknown scheme specs do.
func (r *Rig) addCross(c crossSpec) crossSource {
	var src crossSource
	switch {
	case r.Fluid.Enabled && crosstraffic.HasFluidModel(c.kind):
		f, err := crosstraffic.NewFluid(r.Net, c.route, c.kind, c.rate, c.rtt, r.Fluid, r.Rng.Split("fluid-"+c.kind))
		if err != nil {
			panic(err) // the kind has a model; the route is the caller's to check
		}
		f.Start(c.start)
		src = f
	case c.kind == "poisson":
		p := crosstraffic.NewPoissonOn(r.Net, c.route, c.rtt, c.rate, r.Rng.Split("poisson"))
		p.Start(c.start)
		src = p
	case c.kind == "cbr":
		p := crosstraffic.NewCBROn(r.Net, c.route, c.rtt, c.rate)
		p.Start(c.start)
		src = p
	case c.kind == "trace":
		// The paper's WAN cross traffic (§8.1) at an offered load: Poisson
		// arrivals of finite Cubic flows with heavy-tailed sizes.
		sp := workload.MustParseSpec("bulk")
		sp.Load = c.rate / 1e6
		g := &workload.Generator{
			Net: r.Net, Rng: r.Rng.Split("trace"), Spec: sp, RTT: c.rtt, Route: c.route, MuBps: r.MuBps,
			Sizes: workload.HeavyTailedSizes{},
			// A stream of its own: left nil, Start would split one off the
			// arrival stream and shift every arrival.
			Stats: workload.NewStats(sim.NewRand(r.Cfg.Seed)),
		}
		if err := g.Start(c.start); err != nil {
			panic(err)
		}
		src = g
	case c.kind == "video4k" || c.kind == "video1080p":
		// A DASH client over Cubic on the 4K or the 1080p ladder.
		v := &crosstraffic.VideoClient{
			Net: r.Net, Rng: r.Rng.Split("video"), RTT: c.rtt, Route: c.route,
			Ladder: crosstraffic.Ladder1080p,
			NewCC:  func() transport.Controller { return cc.NewCubic() },
		}
		if c.kind == "video4k" {
			v.Ladder = crosstraffic.Ladder4K
		}
		v.Start(c.start)
		src = v
	case c.probed:
		s := MustScheme(c.kind, r.MuBps)
		s.Name = c.label
		src = r.AddFlowOn(c.route, s, c.rtt, c.start, transport.Backlogged{}).Sender
	default:
		ctrl := MustScheme(c.kind, r.MuBps).Ctrl
		s := transport.NewSenderOn(r.Net, c.route, c.rtt, ctrl, transport.Backlogged{}, r.Rng.Split(c.label))
		s.Start(c.start)
		src = s
	}
	if c.stop > 0 {
		r.Sch.AtFunc(c.stop, src.Stop)
	}
	return src
}

// crossFor is the -cross vocabulary (crosstraffic.Kinds) and its ground
// truth, as mixCross is the figures': the sources a kind starts on a
// route, none for "none".
func crossFor(kind, route string, rateBps float64, rtt sim.Time) (cross []crossSpec, elastic bool, err error) {
	k, ok := crosstraffic.KindByName(kind)
	if !ok {
		return nil, false, fmt.Errorf("exp: unknown cross traffic kind %q (have %s)", kind, crosstraffic.KindNames(nil))
	}
	c := crossSpec{kind: k.Name, route: route, rate: rateBps, rtt: rtt}
	switch k.Name {
	case "none":
		return nil, false, nil
	case "cubic":
		c.label = "ccross0"
	case "reno":
		c.label = "reno-cross"
	}
	return []crossSpec{c}, k.Elastic, nil
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

// scoreCell describes one run: the network, the flows under test, the
// cross traffic and session churn around them, and the cross traffic's
// elasticity as the scorer's ground truth for the whole run.
type scoreCell struct {
	// net is the emulated network; a zero RateMbps, RTT or Buffer means
	// the standard rig's 96 Mbit/s, 50 ms, 100 ms (a scenario's are never
	// zero).
	net NetConfig
	// flows are the flows under test; run puts its scheme here.
	flows []FlowSpec
	// mixed marks a flow mix (Scenario.FlowMix), a one-item mix included.
	// Its queueing delay comes from one recorder fed by every flow:
	// concatenated per-flow reservoirs would weight the flows equally once
	// a busy one hits its cap, instead of by packets delivered.
	mixed bool
	// cross sources start in order, each over its own window; a zero rtt
	// means the rig's.
	cross []crossSpec
	// churn, when non-nil, is a session workload arriving and departing
	// around the flows for the whole run, at the rig's RTT.
	churn   *workload.Spec
	elastic bool
}

// Cell is a built run, armed at time 0: a caller may attach
// instrumentation, then runs Rig.Sch to the horizon and reads Metrics.
type Cell struct {
	Rig   *Rig
	Flows []*Flow             // the flows under test
	Churn *workload.Generator // nil in a cell without churn
	// cross are the sources build started, in scoreCell.cross order; a
	// figure that reads one type-asserts it (crossSource lists the types).
	cross []crossSource
	// delay is the one flow's delay recorder, or a mix's shared one.
	delay *metrics.DelayRecorder
	mixed bool
	acc   *metrics.AccuracyTracker // nil unless BuildScenario scored the flow
}

// build materializes the cell, in the order the top of this file gives.
func (c scoreCell) build() (*Cell, error) {
	if c.net.RateMbps == 0 {
		c.net.RateMbps = 96
	}
	if c.net.RTT == 0 {
		c.net.RTT = 50 * sim.Millisecond
	}
	r := NewRig(c.net)
	flows, err := r.AddFlowSpecs(c.flows...)
	if err != nil {
		return nil, err
	}
	b := &Cell{Rig: r, Flows: flows, delay: flows[0].Probe.Delay, mixed: c.mixed}
	if c.mixed {
		b.delay = metrics.NewDelayRecorder(0, r.Rng.Split("mix-dlyrec"))
		for _, f := range flows {
			f.Probe.Sender.TapDeliveries(func(p *netem.Packet, _ sim.Time) { b.delay.Add(p.QueueDelay) })
		}
	}
	for _, x := range c.cross {
		if x.rtt == 0 {
			x.rtt = c.net.RTT
		}
		b.cross = append(b.cross, r.addCross(x))
	}
	if c.churn != nil {
		b.Churn = &workload.Generator{Net: r.Net, Rng: r.Rng.Split("churn"), Spec: *c.churn, RTT: c.net.RTT, MuBps: r.MuBps}
		if err := b.Churn.Start(0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// mustBuild is build for a figure's own description, whose errors are
// programming errors; it panics on one.
func (c scoreCell) mustBuild() *Cell {
	b, err := c.build()
	if err != nil {
		panic(err)
	}
	return b
}

// release gives the sample chunks of every recorder the cell built back
// to the pool the next cell draws from; the cell's recorders read as empty
// afterwards. A sweep runner calls it once Metrics is computed. Figures
// and nimbus-sim keep reading their probes and never call it.
func (b *Cell) release() {
	b.delay.Release()
	for _, f := range b.Flows {
		f.Probe.Delay.Release()
		f.Probe.RTTms.Release()
	}
	if b.Churn != nil {
		b.Churn.Stats.Release()
	}
}

// scoreResult is what a scored run leaves behind.
type scoreResult struct {
	*Cell // run to the horizon; acc is nil for schemes without modes
	// etas are a Nimbus scheme's η samples after the warm-up, one per
	// tick with a full detector window; elasticEtas counts those at or
	// above the detector's threshold.
	etas        []float64
	elasticEtas int
}

// run builds the cell with the scheme as the one flow under test at the
// rig's RTT, scores its mode decisions and runs it to the horizon.
func (c scoreCell) run(scheme spec.Spec, seed int64, dur sim.Time) *scoreResult {
	c.net.Seed = seed
	c.flows = []FlowSpec{{Scheme: scheme}}
	b := c.mustBuild()
	s, res := b.Flows[0].Scheme, &scoreResult{Cell: b}
	b.acc = scoreModes(b.Rig, s, func(sim.Time) bool { return c.elastic }, scoreWarmup)
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
	b.Rig.Sch.RunUntil(dur)
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
