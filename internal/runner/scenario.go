// Package runner is the parallel experiment engine: a declarative
// Scenario spec with grid-sweep expansion, and a worker pool that executes
// scenarios across goroutines while keeping results byte-identical to a
// sequential run. Each simulation is single-threaded-deterministic by
// design (internal/sim), which makes sweeps embarrassingly parallel: the
// engine's only job is to hand every run an isolated random stream, fan
// the runs out, and reassemble results in submission order.
//
// # Key stability
//
// Scenario.Key is the contract that makes all of this hold together: a
// canonical one-line encoding of every parameter, fed to sim.DeriveSeed
// to give each scenario its own random stream. Three guarantees follow,
// and every change to Scenario must preserve them:
//
//  1. Two scenarios differing in any field have different keys (enforced
//     by TestKeyCoversEveryField via reflection), so no two distinct
//     cells of a sweep ever share a stream.
//  2. A scenario's key never depends on where it appears — not on the
//     grid that expanded it, the worker that ran it, or the fields that
//     happened to vary — so results are reproducible cell by cell.
//  3. New fields append to the key only when set ("/flows=", "/topo=",
//     "/churn=", ...), so every scenario expressible before the field
//     existed keeps its exact key, derived seed, and results.
//
// Spec-valued fields (schemes, flow mixes, churn, topology, fluid) have
// equivalent spellings and enter the key verbatim, so a grid built from
// user input goes through exp.CanonicalGrid before Expand: every entry
// point (the CLIs, -grid files, POST /jobs) calls it, and it is the only
// code that canonicalizes an axis.
package runner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Scenario is a declarative description of one simulation run on the
// single-bottleneck topology: the link, the scheme under test, the cross
// traffic it competes with, and the horizon. New workloads are data, not
// code — build Scenario values (directly or via Grid) and hand them to a
// Runner.
type Scenario struct {
	// Name labels the scenario in results; Grid.Expand derives it from
	// the swept fields.
	Name string `json:"name"`

	// Bottleneck.
	RateMbps    float64 `json:"rate_mbps"`
	RTTms       float64 `json:"rtt_ms"`
	BufferMs    float64 `json:"buffer_ms"`
	AQM         string  `json:"aqm,omitempty"` // droptail (default), pie, codel
	PIETargetMs float64 `json:"pie_target_ms,omitempty"`

	// Time-varying bottleneck capacity. LinkTrace names an embedded
	// capacity trace (netem.TraceNames) or a trace file path; RatePattern
	// is a netem.ParsePattern spec ("step:6:24:2000", "ramp:4:40:8000",
	// "outage:10000:3000") anchored at RateMbps. Both empty means the
	// constant-rate link; setting both is a scenario error at rig time.
	LinkTrace   string `json:"link_trace,omitempty"`
	RatePattern string `json:"rate_pattern,omitempty"`

	// Topology selects the path topology: "" is the paper's single
	// bottleneck; otherwise a preset name ("access-hop", "parking-lot",
	// "rev-congested") or a chain spec like "access(x4,5ms)->bn"
	// (netem.ParseTopology). The string enters Key() verbatim;
	// exp.CanonicalGrid maps equivalent spellings (and "single") to one.
	Topology string `json:"topology,omitempty"`

	// Scheme under test: a typed scheme spec ("nimbus", "copa(delta=0.1)",
	// "nimbus(pulse=0.1,mu=est)"; see the internal/scheme registry).
	// Ignored when FlowMix is set.
	Scheme scheme.Spec `json:"scheme"`

	// FlowMix, when non-empty, replaces the single scheme under test with
	// a heterogeneous flow set: "+"-separated items of the form
	// SPEC[*COUNT][@STARTs[:STOPs]], e.g. "nimbus*2+cubic@10" (two Nimbus
	// flows at t=0 and one Cubic flow joining at t=10s). internal/exp
	// parses it into FlowSpecs and reports per-flow and fairness metrics.
	// The string enters Key() verbatim; exp.CanonicalGrid maps equivalent
	// spellings to one.
	FlowMix string `json:"flow_mix,omitempty"`

	// Churn, when non-empty, runs the scenario as a flow-churn workload:
	// the scheme under test competes with a session-arrival process
	// (internal/workload) of short flows arriving and departing for the
	// whole horizon, and the result carries detection-accuracy and
	// fairness-under-churn metrics. The spec is a workload.Spec string
	// like "bulk(load=24)" or "web(load=12,cc=cubic)". The string enters
	// Key() verbatim; exp.CanonicalGrid maps equivalent spellings to one.
	Churn string `json:"churn,omitempty"`

	// Cross traffic (internal/exp.AddCross kinds) and its offered rate.
	Cross         string  `json:"cross,omitempty"`
	CrossRateMbps float64 `json:"cross_rate_mbps,omitempty"`
	CrossRTTms    float64 `json:"cross_rtt_ms,omitempty"`

	// FluidCross, when non-empty, runs the scenario's cross traffic as a
	// fluid rate process instead of per-packet events
	// (crosstraffic.Fluid): "on" for the default resample interval, or
	// "dt=5ms". Only cross kinds with a fluid model (cbr, poisson,
	// cubic, reno) are affected; the foreground scheme stays exact
	// per-packet. Fluid runs approximate the packet path, so they get
	// their own key — results are not byte-comparable to packet runs.
	// The string enters Key() verbatim; exp.CanonicalGrid maps equivalent
	// spellings (and "off") to one.
	FluidCross string `json:"fluid_cross,omitempty"`

	DurationSec float64 `json:"duration_sec"`
	// Seed is the seed the user asked for (what names and result rows
	// report). RunSeed, when non-zero, is what the simulation actually
	// uses: Grid.Expand derives it from the scenario's own parameters so
	// every cell of a sweep gets an isolated random stream.
	Seed    int64 `json:"seed"`
	RunSeed int64 `json:"run_seed,omitempty"`
}

// EffectiveSeed returns the seed the simulation should run with.
func (s Scenario) EffectiveSeed() int64 {
	if s.RunSeed != 0 {
		return s.RunSeed
	}
	return s.Seed
}

// Key returns a canonical one-line encoding of every parameter. It is the
// label fed to sim.DeriveSeed, so two scenarios differing in any field get
// independent random streams, and the same scenario always gets the same
// stream no matter where in a sweep it appears.
//
// Every Scenario field must be encoded here except Name (a display label)
// and RunSeed (derived from this very key). TestKeyCoversEveryField
// enforces that invariant by reflection — adding a field without
// extending Key (or the test's exemption list) fails the build.
func (s Scenario) Key() string {
	key := fmt.Sprintf("rate=%g/trace=%s/pattern=%s/rtt=%g/buf=%g/aqm=%s/pie=%g/scheme=%s/cross=%s:%g@%g/dur=%g/seed=%d",
		s.RateMbps, s.LinkTrace, s.RatePattern, s.RTTms, s.BufferMs, s.AQM, s.PIETargetMs, s.Scheme,
		s.Cross, s.CrossRateMbps, s.CrossRTTms, s.DurationSec, s.Seed)
	// Appended only when set, so every pre-existing scenario keeps its
	// exact key (and therefore its derived seed and results).
	if s.FlowMix != "" {
		key += "/flows=" + s.FlowMix
	}
	if s.Topology != "" {
		key += "/topo=" + s.Topology
	}
	if s.Churn != "" {
		key += "/churn=" + s.Churn
	}
	if s.FluidCross != "" {
		key += "/fluid=" + s.FluidCross
	}
	return key
}

// CacheKey returns the content address of this scenario's result for a
// given simulator build: Key()/effectiveSeed/codeVersion. It is the key
// the experiment service (internal/svc) stores results under, so the
// composition is load-bearing:
//
//   - Key() covers every scenario parameter (TestKeyCoversEveryField), so
//     two scenarios that could produce different results never share a
//     cached entry.
//   - EffectiveSeed() covers RunSeed, which Key() deliberately omits (it
//     is derived from the key for Grid-expanded scenarios but may be set
//     freely on hand-built ones) yet changes the random stream the
//     simulation actually runs with.
//   - codeVersion identifies the simulation code that produced the
//     result, so a rebuild with different behavior invalidates every
//     entry instead of serving stale results.
//
// TestCacheKeyCoversEveryField pins this composition by reflection.
func (s Scenario) CacheKey(codeVersion string) string {
	return fmt.Sprintf("%s/%d/%s", s.Key(), s.EffectiveSeed(), codeVersion)
}

// Cross pairs a cross-traffic kind with its offered rate for sweeps.
type Cross struct {
	Kind     string  `json:"kind"`
	RateMbps float64 `json:"rate_mbps"`
}

// Grid is a declarative sweep: the cartesian product of every non-empty
// axis applied to a base scenario. Empty axes keep the base value.
type Grid struct {
	Base Scenario `json:"base"`

	RatesMbps    []float64     `json:"rates_mbps,omitempty"`
	LinkTraces   []string      `json:"link_traces,omitempty"`
	RatePatterns []string      `json:"rate_patterns,omitempty"`
	Topologies   []string      `json:"topologies,omitempty"`
	RTTsMs       []float64     `json:"rtts_ms,omitempty"`
	BuffersMs    []float64     `json:"buffers_ms,omitempty"`
	AQMs         []string      `json:"aqms,omitempty"`
	Schemes      []scheme.Spec `json:"schemes,omitempty"`
	FlowMixes    []string      `json:"flow_mixes,omitempty"`
	Churns       []string      `json:"churns,omitempty"`
	Crosses      []Cross       `json:"crosses,omitempty"`
	// Fluids sweeps the fluid cross-traffic axis; "" means the exact
	// per-packet path (the base default).
	Fluids []string `json:"fluids,omitempty"`
	Seeds  []int64  `json:"seeds,omitempty"`
}

// axis is one sweepable dimension of a Grid. The axes table below is the
// only place Grid.Expand learns which dimensions exist: a row reads the
// axis's Grid list, writes its Scenario field(s), and formats the part
// of the cell name the axis contributes when it varies.
type axis struct {
	name  string
	n     func(g *Grid) int                  // length of the axis's Grid list
	set   func(sc *Scenario, g *Grid, i int) // copy list value i into sc
	label func(sc *Scenario) string
}

// newAxis is the row for an axis with one Grid list and one Scenario
// field, labelled "name=value".
func newAxis[T any](name string, list func(*Grid) []T, field func(*Scenario) *T, format func(T) string) axis {
	return axis{
		name:  name,
		n:     func(g *Grid) int { return len(list(g)) },
		set:   func(sc *Scenario, g *Grid, i int) { *field(sc) = list(g)[i] },
		label: func(sc *Scenario) string { return name + "=" + format(*field(sc)) },
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatString(v string) string { return v }

// formatOr names the axis's empty (default) value in cell names.
func formatOr(empty string) func(string) string {
	return func(v string) string {
		if v == "" {
			return empty
		}
		return v
	}
}

// axes lists every sweep axis, outermost first. The order is the
// expansion order and the order of the parts of a cell's name, so it is
// pinned (testdata/expand_golden.txt); TestAxesCoverGrid holds the table
// to Grid's lists and Scenario's fields.
var axes = []axis{
	{
		name:  "scheme",
		n:     func(g *Grid) int { return len(g.Schemes) },
		set:   func(sc *Scenario, g *Grid, i int) { sc.Scheme = g.Schemes[i] },
		label: func(sc *Scenario) string { return sc.Scheme.String() },
	},
	newAxis("flows", func(g *Grid) []string { return g.FlowMixes }, func(sc *Scenario) *string { return &sc.FlowMix }, formatString),
	newAxis("churn", func(g *Grid) []string { return g.Churns }, func(sc *Scenario) *string { return &sc.Churn }, formatString),
	{
		name: "cross",
		n:    func(g *Grid) int { return len(g.Crosses) },
		set: func(sc *Scenario, g *Grid, i int) {
			sc.Cross, sc.CrossRateMbps = g.Crosses[i].Kind, g.Crosses[i].RateMbps
		},
		label: func(sc *Scenario) string { return fmt.Sprintf("cross=%s:%g", sc.Cross, sc.CrossRateMbps) },
	},
	newAxis("fluid", func(g *Grid) []string { return g.Fluids }, func(sc *Scenario) *string { return &sc.FluidCross }, formatOr("off")),
	newAxis("rate", func(g *Grid) []float64 { return g.RatesMbps }, func(sc *Scenario) *float64 { return &sc.RateMbps }, formatFloat),
	newAxis("trace", func(g *Grid) []string { return g.LinkTraces }, func(sc *Scenario) *string { return &sc.LinkTrace }, formatString),
	newAxis("pattern", func(g *Grid) []string { return g.RatePatterns }, func(sc *Scenario) *string { return &sc.RatePattern }, formatString),
	newAxis("topo", func(g *Grid) []string { return g.Topologies }, func(sc *Scenario) *string { return &sc.Topology }, formatOr("single")),
	newAxis("rtt", func(g *Grid) []float64 { return g.RTTsMs }, func(sc *Scenario) *float64 { return &sc.RTTms }, formatFloat),
	newAxis("buf", func(g *Grid) []float64 { return g.BuffersMs }, func(sc *Scenario) *float64 { return &sc.BufferMs }, formatFloat),
	newAxis("aqm", func(g *Grid) []string { return g.AQMs }, func(sc *Scenario) *string { return &sc.AQM }, formatString),
	newAxis("seed", func(g *Grid) []int64 { return g.Seeds }, func(sc *Scenario) *int64 { return &sc.Seed }, func(v int64) string { return strconv.FormatInt(v, 10) }),
}

// Expand returns the scenarios of the grid in a stable order: the
// cartesian product of the axes table, outermost axis first. Every
// scenario gets a per-run seed derived from its own parameters via
// sim.DeriveSeed, so results do not depend on expansion order or worker
// count, and a Name listing the axes that vary (or, when none does, the
// flow mix or scheme).
func (g Grid) Expand() []Scenario {
	// A flow mix replaces the scheme under test, so sweeping both axes
	// would emit duplicate scenarios whose scheme= key component differs
	// but whose runs are identical in everything except the derived
	// seed — results that look scheme-dependent while the scheme was
	// never used. A flow mix therefore collapses the scheme axis.
	if len(g.FlowMixes) > 0 || g.Base.FlowMix != "" {
		g.Schemes, g.Base.Scheme = nil, scheme.Spec{}
	}
	counts := make([]int, len(axes)) // 0: the axis keeps the base value
	var varying []axis
	total := 1
	for i, a := range axes {
		counts[i] = a.n(&g)
		if counts[i] > 0 {
			total *= counts[i]
		}
		if counts[i] > 1 {
			varying = append(varying, a)
		}
	}

	out := make([]Scenario, 0, total)
	parts := make([]string, len(varying))
	idx := make([]int, len(axes)) // the odometer: one digit per axis
	for {
		sc := g.Base
		for i, a := range axes {
			if counts[i] > 0 {
				a.set(&sc, &g, idx[i])
			}
		}
		sc.RunSeed = sim.DeriveSeed(sc.Seed, sc.Key())
		for i, a := range varying {
			parts[i] = a.label(&sc)
		}
		switch {
		case len(parts) > 0:
			sc.Name = strings.Join(parts, "/")
		case sc.FlowMix != "":
			sc.Name = sc.FlowMix
		default:
			sc.Name = sc.Scheme.String()
		}
		out = append(out, sc)

		i := len(axes) - 1 // advance, innermost axis fastest
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Result is one structured row of a sweep.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// Metrics holds named measurements (mean_mbps, qdelay_p95_ms, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Events is the number of simulator events executed.
	Events uint64 `json:"events"`
	// WallSec is the host wall-clock time the run took.
	WallSec float64 `json:"wall_sec"`
	// Err is set when the run failed; Metrics is then nil.
	Err string `json:"err,omitempty"`
}

// EventsPerSec returns simulator events per wall-clock second.
func (r Result) EventsPerSec() float64 {
	if r.WallSec <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSec
}

// Failed counts the results whose run failed. A sweep with any is a
// failed sweep: the CLIs print and write every row, then exit non-zero.
func Failed(rs []Result) int {
	n := 0
	for _, r := range rs {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// MetricNames returns the union of metric keys across results, sorted.
func MetricNames(rs []Result) []string {
	set := map[string]bool{}
	for _, r := range rs {
		for k := range r.Metrics {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
