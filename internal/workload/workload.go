// Package workload generates Internet-scale flow churn: sessions arriving
// and departing continuously on an emulated network, the load a
// production bottleneck actually serves. A Generator replays one parsed
// Spec — Poisson or trace-driven arrivals, bounded-Pareto flow sizes,
// bulk/web/video session models — as finite transport flows that attach
// to the network, run their congestion controller, deliver their bytes,
// and detach. It is the only code in the simulator that spawns, tracks
// and retires finite flows: the paper's WAN-trace cross traffic is a
// bulk Generator with the HeavyTailedSizes sampler.
//
// Determinism: a Generator draws every random variate from the one
// *sim.Rand it is given (per-flow streams come from Rng.Split labels),
// so a scenario's churn is a pure function of its seed — byte-identical
// across runs and at any sweep worker count.
//
// Memory: per-flow results stream into Stats (Welford aggregation, a
// reservoir sample for percentiles, an online Jain index, time-integrated
// gauges), so a run's footprint is bounded by its peak concurrent flows,
// not by flows × time. See docs/architecture.md for where the package
// sits in the stack.
package workload

import (
	"fmt"

	"nimbus/internal/netem"
	scheme "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// ElasticThresholdBytes is the ground-truth elasticity rule (the paper's
// Fig. 12 convention): flows larger than the initial congestion window
// of 10 packets are ACK-clocked over their lifetime and counted elastic.
const ElasticThresholdBytes = 10 * netem.DefaultMSS

// Web and video session-model constants. They are fixed (not Spec
// parameters) so the models stay comparable across experiments; the
// load, cc, and max knobs cover what churn experiments sweep.
var (
	// webObjSizes is the web model's per-object size distribution:
	// page objects are small-to-medium, without bulk's elephant tail.
	webObjSizes = SizeDist{XM: 2e3, Cap: 1e6, Alpha: 1.3}
)

const (
	webMinObjects  = 2                    // objects per page session: uniform 2..16
	webMaxObjects  = 16                   //
	webObjGapMean  = 30 * sim.Millisecond // mean stagger between object starts
	videoChunkTime = 4 * sim.Second       // chunk pacing interval
	videoMinChunks = 1                    // chunks per session: uniform 1..8
	videoMaxChunks = 8                    //
)

// Generator instantiates one workload Spec on a network: it owns the
// arrival process, spawns each session's flows, and streams their
// lifecycle into Stats. Construct with the fields set, then Start it.
type Generator struct {
	Net   *netem.Topology
	Rng   *sim.Rand
	Spec  Spec
	RTT   sim.Time // base RTT of session flows
	Route string   // topology route the flows take ("" = default)
	// MuBps is the nominal bottleneck rate, handed to the session
	// flows' congestion-controller factory (schemes with µ oracles).
	MuBps float64
	// Stats receives the streaming per-flow measurements; NewStats is
	// used when nil.
	Stats *Stats
	// Sizes, when non-nil, replaces the bulk model's bounded-Pareto
	// flow sizes (the WAN-trace cross traffic sets HeavyTailedSizes).
	Sizes Sampler
	// OnComplete, when non-nil, observes every completed session flow
	// (per-flow records Stats' streaming aggregates do not keep).
	OnComplete func(size int, fct sim.Time)

	ccSpec  scheme.Spec
	trace   *SessionTrace
	meanGap sim.Time // mean Poisson session gap, fixed at Start
	stopped bool
	active  map[netem.FlowID]*sessionFlow
}

type sessionFlow struct {
	sender  *transport.Sender
	size    int
	started sim.Time
	elastic bool
}

// Start validates the generator's spec against its environment (the cc
// scheme, the session trace) and begins arrivals at time at.
func (g *Generator) Start(at sim.Time) error {
	cs, err := scheme.Parse(g.Spec.CC)
	if err != nil {
		return fmt.Errorf("workload: cc: %v", err)
	}
	if err := scheme.Validate(cs); err != nil {
		return fmt.Errorf("workload: cc: %v", err)
	}
	g.ccSpec = cs
	if g.Spec.Model == "trace" {
		if g.trace, err = LoadSessionTrace(g.Spec.Src); err != nil {
			return err
		}
	}
	if g.Stats == nil {
		g.Stats = NewStats(g.Rng.Split("wstats"))
	}
	g.active = make(map[netem.FlowID]*sessionFlow)
	switch g.Spec.Model {
	case "trace":
		for _, a := range g.trace.Arrivals {
			bytes := a.Bytes
			g.Net.Sch.AtFunc(at+a.At, func() { g.spawnFlow(bytes) })
		}
	default:
		g.meanGap = sim.FromSeconds(g.meanSessionBytes() * 8 / (g.Spec.Load * 1e6))
		g.Net.Sch.AtFunc(at, g.arrival)
	}
	return nil
}

// Stop halts new arrivals; active flows run to completion.
func (g *Generator) Stop() { g.stopped = true }

// ElasticActive reports whether any active session flow is elastic — the
// detector's ground truth (Stats.ElasticActive, surfaced for trackers).
func (g *Generator) ElasticActive() bool { return g.Stats.ElasticActive() }

// ActiveFlows returns the number of in-progress session flows.
func (g *Generator) ActiveFlows() int { return len(g.active) }

// ElasticByteFraction returns the fraction of the active flows'
// remaining bytes that belongs to elastic flows (Fig. 12's ground-truth
// signal); 0 when nothing is active.
func (g *Generator) ElasticByteFraction() float64 {
	totalRem, elasticRem := 0.0, 0.0
	for _, sf := range g.active {
		rem := float64(sf.size) - float64(sf.sender.DeliveredBytes)
		if rem < 0 {
			rem = 0
		}
		totalRem += rem
		if sf.elastic {
			elasticRem += rem
		}
	}
	if totalRem == 0 {
		return 0
	}
	return elasticRem / totalRem
}

// meanSessionBytes is the analytic mean bytes per session, which turns
// the offered load into the Poisson session arrival rate.
func (g *Generator) meanSessionBytes() float64 {
	switch g.Spec.Model {
	case "web":
		meanObjs := float64(webMinObjects+webMaxObjects) / 2
		return meanObjs * webObjSizes.MeanBytes()
	case "video":
		meanChunks := float64(videoMinChunks+videoMaxChunks) / 2
		return meanChunks * g.videoChunkBytes()
	default: // bulk
		return g.sizes().MeanBytes()
	}
}

func (g *Generator) sizes() Sampler {
	if g.Sizes != nil {
		return g.Sizes
	}
	return SizeDist{XM: g.Spec.XM, Cap: g.Spec.Cap, Alpha: g.Spec.Alpha}
}

// videoChunkBytes is one chunk of the session bitrate: Rate Mbit/s over
// the chunk interval.
func (g *Generator) videoChunkBytes() float64 {
	return g.Spec.Rate * 1e6 * videoChunkTime.Seconds() / 8
}

// arrival spawns one session and schedules the next with an exponential
// gap sized so the long-run offered load matches Spec.Load.
func (g *Generator) arrival() {
	if g.stopped {
		return
	}
	g.spawnSession()
	g.Net.Sch.AfterFunc(g.Rng.ExpTime(g.meanGap), g.arrival)
}

func (g *Generator) spawnSession() {
	switch g.Spec.Model {
	case "web":
		// A page session: several small objects, starts staggered by
		// think/parse gaps, all sizes and gaps drawn up front so the
		// variate order never depends on flow completion timing.
		nobj := webMinObjects + g.Rng.Intn(webMaxObjects-webMinObjects+1)
		at := sim.Time(0)
		for i := 0; i < nobj; i++ {
			size := webObjSizes.Sample(g.Rng)
			if i > 0 {
				at += g.Rng.ExpTime(webObjGapMean)
			}
			g.spawnFlowAfter(at, size)
		}
	case "video":
		// A streaming session: fixed-size chunks on a fixed cadence —
		// inelastic on average (the pacing caps the session's rate), but
		// each chunk individually fills the pipe while it lasts.
		nchunks := videoMinChunks + g.Rng.Intn(videoMaxChunks-videoMinChunks+1)
		size := int(g.videoChunkBytes())
		for i := 0; i < nchunks; i++ {
			g.spawnFlowAfter(sim.Time(i)*videoChunkTime, size)
		}
	default: // bulk
		g.spawnFlow(g.sizes().Sample(g.Rng))
	}
}

func (g *Generator) spawnFlowAfter(d sim.Time, size int) {
	if d == 0 {
		g.spawnFlow(size)
		return
	}
	g.Net.Sch.AfterFunc(d, func() { g.spawnFlow(size) })
}

func (g *Generator) spawnFlow(size int) {
	if g.stopped {
		return
	}
	if g.Spec.Max > 0 && len(g.active) >= g.Spec.Max {
		g.Stats.flowCapped()
		return
	}
	ctrl, err := scheme.Build(g.ccSpec, scheme.BuildContext{MuBps: g.MuBps})
	if err != nil {
		// The spec was validated at Start; a build error here is a
		// harness bug, and runGuarded turns panics into error rows.
		panic(err)
	}
	now := g.Net.Sch.Now()
	sf := &sessionFlow{size: size, started: now, elastic: size > ElasticThresholdBytes}
	src := transport.NewFiniteFlow(size, func(done sim.Time) { g.finish(sf, done) })
	sf.sender = transport.NewSenderOn(g.Net, g.Route, g.RTT, ctrl, src, g.Rng.Split("sess"))
	g.active[sf.sender.ID()] = sf
	g.Stats.flowStarted(now, sf.elastic)
	sf.sender.Start(now)
}

func (g *Generator) finish(sf *sessionFlow, done sim.Time) {
	sf.sender.Stop()
	delete(g.active, sf.sender.ID())
	g.Stats.flowCompleted(done, sf.size, done-sf.started, sf.elastic)
	if g.OnComplete != nil {
		g.OnComplete(sf.size, done-sf.started)
	}
}
