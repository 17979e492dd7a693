// Package exp contains the experiment harness: one constructor per table
// or figure of the paper, each returning a Report (table.go): the numbers
// the paper reports, as panels of named columns and named values, plus
// the shape the paper expects of them. Report.String is the one renderer;
// an experiment declares its columns and fills its rows, and prints
// nothing itself. A Report holds what the figure's text states, not the
// curves behind it: time series and CDFs for plotting belong to the trace
// sink (ROADMAP item 3), not to fields here. The DESIGN.md experiment
// index maps every figure/table to its function here and its benchmark in
// the repository root. Every run with a flow under test — a sweep cell, a
// scoring cell of the accuracy experiments, a scripted figure's scenario,
// nimbus-sim's single run — is a scoreCell description built by one
// function, scoreCell.build in score.go (BuildScenario from outside); a
// figure instruments the built Cell and runs it. Cross-traffic
// construction and mode scoring live there too.
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
	"nimbus/internal/transport"
)

// NetConfig describes the emulated network (the Mahimahi stand-in): the
// nominal bottleneck parameters plus, optionally, a topology the path is
// built from.
type NetConfig struct {
	RateMbps  float64
	RTT       sim.Time // base RTT of the primary flow
	Buffer    sim.Time // drop-tail buffer depth in time at the link rate
	AQM       string   // a row of netem.AQMs; "" is the default, drop-tail
	PIETarget sim.Time // PIE target delay (default 20 ms)
	Seed      int64
	// Schedule, when non-nil, makes the bottleneck capacity time-varying
	// (traces, ramps, outages). RateMbps stays the nominal rate: buffer
	// depth and the AQM drain-rate estimate are sized from it, the way a
	// real deployment provisions for a nominal capacity.
	Schedule *netem.RateSchedule
	// Topology selects the path topology: empty (or "single") is the
	// paper's Fig. 2 single bottleneck; otherwise a preset name
	// ("access-hop", "parking-lot", "rev-congested") or a chain spec like
	// "access(x4,5ms)->bn" (netem.ParseTopology). Links without explicit
	// rates/buffers inherit RateMbps/Buffer; the bottleneck link inherits
	// AQM and Schedule.
	Topology string
	// TimerWheel is ignored. It used to select the timer wheel over a
	// heap; the scheduler has one event queue now (docs/architecture.md,
	// "Decided: one event queue"). The field is kept only because the
	// benchmark harness, which a change to the simulator may not edit,
	// still sets it.
	TimerWheel bool
	// Fluid, when non-empty, is a canonical crosstraffic.FluidSpec string
	// ("on", "dt=5ms"): every link gets the fluid load term enabled
	// (Link.EnableFluid), and AddCross kinds with a fluid model
	// (crosstraffic.Kinds) attach as rate processes instead of packet
	// sources. Kinds without a model stay exact per-packet.
	Fluid string
}

// Rig is an instantiated network for one experiment run. Link is the
// bottleneck hop; Net is the full topology (the trivial one-hop topology
// by default).
type Rig struct {
	Sch   *sim.Scheduler
	Link  *netem.Link
	Net   *netem.Topology
	Rng   *sim.Rand
	MuBps float64
	Cfg   NetConfig
	// Fluid is the parsed form of Cfg.Fluid (zero = disabled).
	Fluid crosstraffic.FluidSpec
}

// NewRig builds the network from the config's topology spec (the single
// bottleneck when none is given). Unknown AQMs and malformed topologies
// panic: a scenario's are checked before it gets here (CanonicalGrid
// for a grid, cellFor for every cell), and the sweep harness's
// runGuarded turns a hand-built cell's panic into an error row.
func NewRig(cfg NetConfig) *Rig {
	if cfg.Buffer == 0 {
		cfg.Buffer = 100 * sim.Millisecond
	}
	ts, err := netem.ParseTopology(cfg.Topology)
	if err != nil {
		panic("exp: " + err.Error())
	}
	fluid, err := crosstraffic.ParseFluidSpec(cfg.Fluid)
	if err != nil {
		panic("exp: " + err.Error())
	}
	sch := sim.NewScheduler()
	rng := sim.NewRand(cfg.Seed + 1)
	nominal := cfg.RateMbps * 1e6
	pieTarget := cfg.PIETarget
	if pieTarget == 0 {
		pieTarget = 20 * sim.Millisecond
	}
	// The µ link depends on the nominal rate for chains mixing scaled and
	// absolute rates ("access(x4)->bn(48mbps)" at -rate 24 bottlenecks at
	// bn, not access).
	bottleneck := ts.BottleneckAt(nominal)
	// µ is the bottleneck's resolved capacity — the nominal rate for the
	// single topology and every preset (their bottlenecks inherit it),
	// but a chain may pin the bottleneck to an explicit absolute rate.
	muBps := nominal
	byName := make(map[string]*netem.Link, len(ts.Links))
	net := netem.NewTopology(sch)
	for _, ls := range ts.Links {
		isBn := ls.Name == bottleneck
		rate := ls.ResolveRate(nominal)
		if isBn {
			muBps = rate
		}
		aqm := ls.AQM
		if aqm == "" && isBn {
			aqm = cfg.AQM
		}
		buf := cfg.Buffer
		if ls.BufferMs > 0 {
			buf = sim.FromSeconds(ls.BufferMs / 1e3)
		}
		bufBytes := netem.BufferBytesForDelay(rate, buf)
		a, ok := netem.AQMByName(aqm)
		if !ok {
			panic("exp: unknown AQM " + aqm)
		}
		// The bottleneck's PIE stream keeps its historical label so
		// single-topology results stay byte-identical.
		label := "pie"
		if !isBn {
			label = "pie-" + ls.Name
		}
		q := a.New(bufBytes, rate, pieTarget, rng, label)
		var sched *netem.RateSchedule
		switch {
		case isBn && cfg.Schedule != nil:
			sched = cfg.Schedule
		case ls.Pattern != "":
			sched, err = netem.ParsePattern(ls.Pattern, rate)
			if err != nil {
				panic("exp: " + err.Error())
			}
		default:
			sched = netem.ConstantRate(rate)
		}
		link := netem.NewLinkSchedule(sch, sched, q)
		link.Name = ls.Name
		if fluid.Enabled || ls.FluidMbps > 0 {
			link.EnableFluid(bufBytes)
			if ls.FluidMbps > 0 {
				link.AddFluidRate(ls.FluidMbps * 1e6)
			}
		}
		net.AddLink(link)
		byName[ls.Name] = link
	}
	for _, rs := range ts.Routes {
		r := &netem.Route{Name: rs.Name}
		for _, hop := range rs.Fwd {
			r.Fwd = append(r.Fwd, netem.Hop{Link: byName[hop], Delay: hopDelay(ts, hop)})
		}
		for _, hop := range rs.Rev {
			r.Rev = append(r.Rev, netem.Hop{Link: byName[hop], Delay: hopDelay(ts, hop)})
		}
		net.AddRoute(r)
	}
	net.Link = byName[bottleneck]
	return &Rig{
		Sch:   sch,
		Link:  net.Link,
		Net:   net,
		Rng:   rng,
		MuBps: muBps,
		Cfg:   cfg,
		Fluid: fluid,
	}
}

// hopDelay returns a link's wire delay from its spec.
func hopDelay(ts netem.TopoSpec, name string) sim.Time {
	return sim.FromSeconds(ts.LinkByName(name).DelayMs / 1e3)
}

// Scheme is a constructed congestion controller, with the Nimbus core
// exposed when the scheme is Nimbus-based. Schemes are built from typed
// specs through the internal/scheme registry, which internal/cc and
// internal/core populate at init time.
type Scheme struct {
	// Name is the registered scheme name (the spec's name without
	// parameters); random streams and result rows are labeled with it.
	Name string
	// Spec is the full typed spec the scheme was built from.
	Spec   spec.Spec
	Ctrl   transport.Controller
	Nimbus *core.Nimbus // nil for non-Nimbus schemes
	Copa   *cc.Copa     // non-nil for the Copa baseline (mode telemetry)
}

// BuildScheme constructs the scheme a spec describes. muBps is the
// nominal bottleneck rate (the µ oracle's truth); mu, when non-nil, is
// the environment's true-rate µ source — rigs with time-varying links
// pass a LinkOracle, since a fixed-rate oracle would hand Nimbus a
// stale µ the moment the capacity moves. A spec that explicitly asks
// for the estimator (mu=est) keeps the estimator either way.
func BuildScheme(sp spec.Spec, muBps float64, mu core.MuEstimator) (Scheme, error) {
	ctrl, err := spec.Build(sp, spec.BuildContext{MuBps: muBps, Mu: mu})
	if err != nil {
		return Scheme{}, err
	}
	s := Scheme{Name: sp.Name, Spec: sp, Ctrl: ctrl}
	if n, ok := ctrl.(*core.Nimbus); ok {
		s.Nimbus = n
	}
	if c, ok := ctrl.(*cc.Copa); ok {
		s.Copa = c
	}
	return s, nil
}

// MustScheme parses a spec string ("nimbus", "copa(delta=0.1)",
// "nimbus(pulse=0.1,multiflow=true)") and builds it, panicking on error
// (the harness's runGuarded turns panics into error rows). It is the
// one-liner a cross-traffic sender and a hand-built rig use.
func MustScheme(s string, muBps float64) Scheme {
	sc, err := BuildScheme(spec.MustParse(s), muBps, nil)
	if err != nil {
		panic(err)
	}
	return sc
}

// LinkOracle is the time-varying analogue of core.Oracle: it reports the
// link's instantaneous capacity as µ, for experiments that control for µ
// estimation error on schedules where no single rate is "the" truth. In
// multi-hop rigs the oracle reads the bottleneck hop's link (Rig.Link).
type LinkOracle struct{ Link *netem.Link }

// Observe is a no-op; the oracle reads the link directly.
func (LinkOracle) Observe(sim.Time, float64) {}

// Mu returns the scheduled instantaneous capacity. It evaluates the
// schedule at the current time rather than returning the link's internal
// drain rate: the drain rate is updated by scheduler events, so a reader
// running at the same timestamp as a transition would see the old rate or
// the new one depending on event seeding order, while the schedule gives
// one well-defined answer.
func (o LinkOracle) Mu() float64 { return o.Link.Schedule.RateAt(o.Link.Sch.Now()) }

// SchemeNames lists the schemes most experiments compare.
var SchemeNames = []string{"nimbus", "cubic", "bbr", "vegas", "copa", "vivace"}

// FlowProbe records a flow's throughput and per-packet queueing delay,
// and, once RecordRTT is called, its RTT samples.
type FlowProbe struct {
	Tput   *metrics.Meter
	Delay  *metrics.DelayRecorder
	RTTms  *metrics.DelayRecorder // empty unless RecordRTT was called
	Sender *transport.Sender
}

// AddFlow attaches a backlogged flow with the scheme and a probe.
func (r *Rig) AddFlow(s Scheme, rtt sim.Time, start sim.Time) *FlowProbe {
	return r.AddFlowOn("", s, rtt, start, transport.Backlogged{})
}

// AddFlowOn attaches a flow on a named route of the rig's topology (""
// is the default end-to-end route).
func (r *Rig) AddFlowOn(route string, s Scheme, rtt sim.Time, start sim.Time, src transport.Source) *FlowProbe {
	sender := transport.NewSenderOn(r.Net, route, rtt, s.Ctrl, src, r.Rng.Split("flow-"+s.Name))
	// "rttrec" is split whether or not RecordRTT is ever called: a Split is
	// a draw from the rig's stream, so every later stream depends on it (an
	// undrawn stream and an empty recorder cost a few words).
	probe := &FlowProbe{
		Tput:   metrics.NewMeter(sim.Second),
		Delay:  metrics.NewDelayRecorder(0, r.Rng.Split("dlyrec")),
		RTTms:  metrics.NewDelayRecorder(0, r.Rng.Split("rttrec")),
		Sender: sender,
	}
	sender.OnDeliverHook = func(p *netem.Packet, now sim.Time) {
		probe.Tput.Add(now, p.Size)
		probe.Delay.Add(p.QueueDelay)
	}
	sender.Start(start)
	return probe
}

// RecordRTT makes the probe sample one RTT per ACK into RTTms, from the
// call on. Only the experiments that report an RTT call it (Figs. 9, 13
// and 18-20): a sweep cell reads queueing delay only, and an RTT sample
// per ACK would double what its probe records.
func (p *FlowProbe) RecordRTT() {
	p.Sender.OnAckHook = func(a transport.AckInfo) { p.RTTms.Add(a.RTT) }
}

// MeanMbps is the probe's mean throughput over [from, to).
func (p *FlowProbe) MeanMbps(from, to sim.Time) float64 { return p.Tput.MeanMbps(from, to) }

// FlowSpec declares one group of flows for a Rig: which scheme, how many
// copies, when they start and stop, and which route they take. Every flow
// is backlogged and has the rig's RTT. It is the composition unit behind
// heterogeneous coexistence experiments (Nimbus-vs-Cubic-vs-BBR mixes,
// late joiners) — one Rig hosts any number of FlowSpecs.
type FlowSpec struct {
	// Scheme is the typed scheme spec each flow runs.
	Scheme spec.Spec
	// Count is how many identical flows to start (0 means 1). Each gets
	// its own controller instance and random stream.
	Count int
	// StartAt / StopAt bound the flows' lifetime; StopAt 0 means the
	// flows run to the end of the simulation.
	StartAt, StopAt sim.Time
	// Route is the topology route the flows take ("" = the default
	// end-to-end route). Parking-lot style experiments use it to pin
	// flows to individual hops.
	Route string
}

// Flow is one instantiated flow of a FlowSpec: its constructed scheme,
// its probe, and where it came from.
type Flow struct {
	Spec   FlowSpec
	Index  int // index within the FlowSpec's Count
	Scheme Scheme
	Probe  *FlowProbe
}

// Active returns the flow's active interval clipped to [0, end).
func (f *Flow) Active(end sim.Time) (from, to sim.Time) {
	from, to = f.Spec.StartAt, end
	if f.Spec.StopAt > 0 && f.Spec.StopAt < end {
		to = f.Spec.StopAt
	}
	return from, to
}

// AddFlowSpecs instantiates flow specs on the rig, in order. Flows on a
// time-varying rig get the link oracle as µ unless their spec says
// otherwise; start/stop scheduling and per-flow probes are wired the
// same way AddFlow does for a single flow. The call is atomic: every
// scheme is built (and validated) before any flow touches the rig, so
// an error leaves the rig exactly as it was.
func (r *Rig) AddFlowSpecs(specs ...FlowSpec) ([]*Flow, error) {
	var mu core.MuEstimator
	if r.Link.Varying() {
		mu = LinkOracle{Link: r.Link}
	}
	var flows []*Flow
	for _, fs := range specs {
		if fs.StopAt > 0 && fs.StopAt <= fs.StartAt {
			return nil, fmt.Errorf("exp: flow spec %s: stop %gs not after start %gs",
				fs.Scheme, fs.StopAt.Seconds(), fs.StartAt.Seconds())
		}
		if r.Net.Route(fs.Route) == nil {
			return nil, fmt.Errorf("exp: flow spec %s: no route %q in topology %s",
				fs.Scheme, fs.Route, r.Cfg.Topology)
		}
		count := fs.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			s, err := BuildScheme(fs.Scheme, r.MuBps, mu)
			if err != nil {
				return nil, err
			}
			flows = append(flows, &Flow{Spec: fs, Index: i, Scheme: s})
		}
	}
	for _, f := range flows {
		f.Probe = r.AddFlowOn(f.Spec.Route, f.Scheme, r.Cfg.RTT, f.Spec.StartAt, transport.Backlogged{})
		if stop := f.Spec.StopAt; stop > 0 {
			r.Sch.AtFunc(stop, f.Probe.Sender.Stop)
		}
	}
	return flows, nil
}

// FlowSetStats are the aggregate measurements of a heterogeneous flow
// set: per-flow throughput plus the fairness of the allocation.
type FlowSetStats struct {
	// PerFlowMbps is each flow's mean throughput over its own active
	// interval, in AddFlowSpecs order.
	PerFlowMbps []float64
	// AggMbps is the flow set's aggregate throughput over the whole run
	// ([0, end)) — total delivered bits over total time, so it is
	// bounded by the link capacity and comparable to a single flow's
	// mean_mbps regardless of how the flows' active windows stagger.
	AggMbps float64
	// SharedMbps is each flow's mean throughput over the window where
	// every flow is active, from the last start to the first stop; Jain
	// and JSDUniform score that allocation (Jain's fairness index;
	// Jensen-Shannon divergence from the equal-share split, in bits).
	// Nil and 0 when no such window exists.
	SharedMbps []float64
	Jain       float64
	JSDUniform float64
}

// FlowStats measures a flow set at the end of a run.
func FlowStats(flows []*Flow, end sim.Time) FlowSetStats {
	st := FlowSetStats{}
	// The fairness window: every flow active.
	winFrom, winTo := sim.Time(0), end
	for _, f := range flows {
		from, to := f.Active(end)
		if from > winFrom {
			winFrom = from
		}
		if to < winTo {
			winTo = to
		}
		st.PerFlowMbps = append(st.PerFlowMbps, f.Probe.MeanMbps(from, to))
		st.AggMbps += f.Probe.MeanMbps(0, end)
	}
	if winTo > winFrom {
		for _, f := range flows {
			st.SharedMbps = append(st.SharedMbps, f.Probe.MeanMbps(winFrom, winTo))
		}
		st.Jain = metrics.JainIndex(st.SharedMbps)
		st.JSDUniform = metrics.JSDUniform(st.SharedMbps)
	}
	return st
}

// ratio is a/b, 0 when there is nothing to divide by: a phase nothing
// was sampled in reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AddCross attaches a named cross-traffic generator to the rig's default
// route (used by cmd/nimbus-sim and the examples). kind names a row of
// crosstraffic.Kinds.
func AddCross(r *Rig, kind string, rateBps float64, rtt sim.Time) error {
	return AddCrossOn(r, "", kind, rateBps, rtt)
}

// AddCrossOn is AddCross on a named route of the rig's topology, so
// cross traffic can enter at individual hops (parking-lot contention) or
// on the reverse path (ACK-path congestion via "rev-cross").
func AddCrossOn(r *Rig, route, kind string, rateBps float64, rtt sim.Time) error {
	if r.Net.Route(route) == nil {
		return fmt.Errorf("exp: cross traffic %q: no route %q in topology %s", kind, route, r.Cfg.Topology)
	}
	cross, _, err := crossFor(kind, route, rateBps, rtt)
	if err != nil {
		return err
	}
	for _, c := range cross {
		r.addCross(c)
	}
	return nil
}
