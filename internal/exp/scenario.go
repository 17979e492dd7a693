package exp

import (
	"errors"
	"fmt"
	"math"

	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// Workers is the worker-pool size every experiment grid in this package
// runs on: 0 means one worker per CPU, 1 forces sequential execution.
// cmd binaries set it from their -workers flag. Changing it never changes
// results — each grid cell owns its scheduler and random streams — only
// how many cells run at once.
var Workers = 0

// mapCells fans the n cells of an experiment grid out on the shared
// worker pool, returning results in cell order.
func mapCells[T any](n int, f func(i int) T) []T {
	return runner.Map(Workers, n, f)
}

// grid runs one cell at every point of the index grid dims[0] x dims[1]
// x ..., first axis outermost, on the shared worker pool, and returns the
// cells' results (table rows, mostly) in that order.
func grid[T any](dims []int, cell func(ix []int) T) []T {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return mapCells(n, func(i int) T {
		ix := make([]int, len(dims))
		for k := len(dims) - 1; k >= 0; k-- {
			ix[k], i = i%dims[k], i/dims[k]
		}
		return cell(ix)
	})
}

// NetConfigFor translates a declarative scenario's link description.
func NetConfigFor(sc runner.Scenario) NetConfig {
	return NetConfig{
		RateMbps:  sc.RateMbps,
		RTT:       sim.FromSeconds(sc.RTTms / 1e3),
		Buffer:    sim.FromSeconds(sc.BufferMs / 1e3),
		AQM:       sc.AQM,
		PIETarget: sim.FromSeconds(sc.PIETargetMs / 1e3),
		Seed:      sc.EffectiveSeed(),
		Topology:  sc.Topology,
		Fluid:     sc.FluidCross,
	}
}

// netConfigChecked is NetConfigFor plus everything that must hold before
// NewRig is called, so a bad cell is an error row rather than a panic or
// — worse — a normal-looking result: the link rate, RTT and horizon must
// be finite and positive (a zero-rate link delivers nothing and reports
// perfect mode accuracy), the link axes must resolve to a schedule, and
// the topology and fluid specs must parse.
func netConfigChecked(sc runner.Scenario) (NetConfig, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"rate_mbps", sc.RateMbps}, {"rtt_ms", sc.RTTms}, {"duration_sec", sc.DurationSec}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) { // !(v > 0) also catches NaN
			return NetConfig{}, fmt.Errorf("exp: scenario %q: %s must be finite and > 0, got %v", sc.Name, f.name, f.v)
		}
	}
	cfg := NetConfigFor(sc)
	sched, err := ScheduleForScenario(sc)
	if err != nil {
		return NetConfig{}, err
	}
	cfg.Schedule = sched
	if _, err := netem.ParseTopology(sc.Topology); err != nil {
		return NetConfig{}, err
	}
	if _, err := crosstraffic.ParseFluidSpec(sc.FluidCross); err != nil {
		return NetConfig{}, err
	}
	return cfg, nil
}

// ScheduleForScenario resolves the scenario's time-varying link axes into
// a rate schedule: a named/loaded trace, a parsed pattern spec anchored
// at the scenario's nominal rate, or nil for the constant link.
func ScheduleForScenario(sc runner.Scenario) (*netem.RateSchedule, error) {
	hasPattern := sc.RatePattern != "" && sc.RatePattern != "constant"
	if sc.LinkTrace != "" && hasPattern {
		return nil, fmt.Errorf("exp: scenario %q sets both LinkTrace (%s) and RatePattern (%s); pick one",
			sc.Name, sc.LinkTrace, sc.RatePattern)
	}
	if sc.LinkTrace != "" {
		return netem.LoadTrace(sc.LinkTrace)
	}
	if hasPattern {
		return netem.ParsePattern(sc.RatePattern, sc.RateMbps*1e6)
	}
	return nil, nil
}

// RigForScenario materializes a declarative scenario: the bottleneck
// (constant or time-varying), the scheme under test as a backlogged flow
// with a probe, and the scenario's cross traffic. The caller may attach
// extra instrumentation before running the rig to sc.DurationSec.
func RigForScenario(sc runner.Scenario) (*Rig, Scheme, *FlowProbe, error) {
	cfg, err := netConfigChecked(sc)
	if err != nil {
		return nil, Scheme{}, nil, err
	}
	r := NewRig(cfg)
	var mu core.MuEstimator
	if r.Link.Varying() {
		mu = LinkOracle{Link: r.Link}
	}
	scheme, err := BuildScheme(sc.Scheme, r.MuBps, mu)
	if err != nil {
		return nil, Scheme{}, nil, err
	}
	probe := r.AddFlow(scheme, sim.FromSeconds(sc.RTTms/1e3), 0)
	if err := AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, crossRTT(sc)); err != nil {
		return nil, Scheme{}, nil, err
	}
	return r, scheme, probe, nil
}

// crossRTT is the cross traffic's base RTT: the scenario's own unless
// CrossRTTms overrides it.
func crossRTT(sc runner.Scenario) sim.Time {
	if sc.CrossRTTms > 0 {
		return sim.FromSeconds(sc.CrossRTTms / 1e3)
	}
	return sim.FromSeconds(sc.RTTms / 1e3)
}

// CrossElastic reports whether a cross-traffic kind backs off under
// congestion — the ground truth Nimbus's mode decision is scored against
// (crosstraffic.Kinds; unknown kinds are not elastic).
func CrossElastic(kind string) bool {
	k, _ := crosstraffic.KindByName(kind)
	return k.Elastic
}

// RunScenario is the standard runner.RunFunc: it materializes the
// scenario, runs it to its horizon, and reports the measurements every
// sweep wants — throughput, queueing delay, utilization, drops, and (for
// Nimbus schemes) mode telemetry including time-weighted mode accuracy
// against the cross traffic's known elasticity. The engine fills in wall
// time.
//
// With Churn set, the scheme under test runs as the long-lived flow
// while the session workload arrives and departs around it on the same
// rig: the result adds the workload's streaming summary (churn_*
// metrics), and mode accuracy is scored against the workload's exact
// elastic-flow ground truth instead of a static label.
func RunScenario(sc runner.Scenario) runner.Result {
	fail := func(err error) runner.Result {
		return runner.Result{Scenario: sc, Err: err.Error()}
	}
	if sc.FlowMix != "" {
		if sc.Churn != "" {
			return fail(fmt.Errorf("exp: scenario %q sets both FlowMix (%s) and Churn (%s); pick one",
				sc.Name, sc.FlowMix, sc.Churn))
		}
		return RunFlowMixScenario(sc)
	}
	r, scheme, probe, err := RigForScenario(sc)
	if err != nil {
		return fail(err)
	}
	truth := CrossElastic(sc.Cross)
	elastic := func(sim.Time) bool { return truth }
	var gen *workload.Generator
	if sc.Churn != "" {
		wsp, err := workload.ParseSpec(sc.Churn)
		if err != nil {
			return fail(err)
		}
		// Built after the rig's flow and cross traffic: Split consumes the
		// parent stream, so the order is part of every churn cell's result.
		gen = &workload.Generator{
			Net:   r.Net,
			Rng:   r.Rng.Split("churn"),
			Spec:  wsp,
			RTT:   sim.FromSeconds(sc.RTTms / 1e3),
			MuBps: r.MuBps,
		}
		if err := gen.Start(0); err != nil {
			return fail(err)
		}
		// Ground truth is live: "is any elastic session flow active right
		// now", not a per-scenario constant.
		elastic = func(sim.Time) bool { return gen.ElasticActive() }
	}
	end := sim.FromSeconds(sc.DurationSec)
	// Nimbus schemes only: scoring Copa arms a sampler event, which would
	// change the copa cells' event counts and every cached result.
	var acc *metrics.AccuracyTracker
	if scheme.Nimbus != nil {
		acc = scoreModes(r, scheme, elastic, end/4)
	}
	r.Sch.RunUntil(end)

	m := linkMetrics(r, probe.MeanMbps(0, end))
	addQdelayMetrics(m, probe.Delay)
	if gen != nil {
		sm := gen.Stats.Snapshot(end)
		m["churn_started"] = float64(sm.Started)
		m["churn_completed"] = float64(sm.Completed)
		m["churn_capped"] = float64(sm.Capped)
		m["churn_mbps"] = sm.AggMbps
		m["churn_mean_active"] = sm.MeanActive
		m["churn_max_active"] = float64(sm.MaxActive)
		m["churn_fct_mean_ms"] = sm.FCTMeanMs
		m["churn_fct_p50_ms"] = sm.FCTP50Ms
		m["churn_fct_p95_ms"] = sm.FCTP95Ms
		m["churn_jain"] = sm.Jain
		m["churn_elastic_frac"] = sm.ElasticFrac
	}
	if scheme.Nimbus != nil {
		m["mode_switches"] = float64(scheme.Nimbus.ModeSwitches)
		m["eta"] = scheme.Nimbus.LastEta()
		mode := 0.0
		if scheme.Nimbus.Mode() == core.ModeCompetitive {
			mode = 1
		}
		m["competitive_mode"] = mode
		m["mode_accuracy"] = acc.Accuracy()
	}
	dropNonFinite(m)
	return runner.Result{Scenario: sc, Metrics: m, Events: r.Sch.Executed}
}

// RunFlowMixScenario is RunScenario for scenarios whose FlowMix is set:
// the mix's heterogeneous flow set replaces the single scheme under
// test, and the result carries per-flow throughput (flowNN_mbps) plus
// fairness of the allocation (jain, jsd_uniform) alongside the usual
// link-level metrics. The fairness window is the interval where every
// flow in the mix is active.
func RunFlowMixScenario(sc runner.Scenario) runner.Result {
	fail := func(err error) runner.Result {
		return runner.Result{Scenario: sc, Err: err.Error()}
	}
	specs, err := ParseFlowMix(sc.FlowMix)
	if err != nil {
		return fail(err)
	}
	cfg, err := netConfigChecked(sc)
	if err != nil {
		return fail(err)
	}
	r := NewRig(cfg)
	flows, err := r.AddFlowSpecs(specs...)
	if err != nil {
		return fail(err)
	}
	// Aggregate queueing delay comes from one shared recorder fed by
	// every flow's deliveries: per-flow recorders are reservoirs over
	// their own flow, so concatenating their samples would weight flows
	// equally once a busy flow hits the reservoir cap, instead of by
	// packets actually delivered.
	sharedDelay := metrics.NewDelayRecorder(0, r.Rng.Split("mix-dlyrec"))
	for _, f := range flows {
		f.Probe.Sender.TapDeliveries(func(p *netem.Packet, now sim.Time) {
			sharedDelay.Add(p.QueueDelay)
		})
	}
	if err := AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, crossRTT(sc)); err != nil {
		return fail(err)
	}
	end := sim.FromSeconds(sc.DurationSec)
	r.Sch.RunUntil(end)

	st := FlowStats(flows, end)
	m := linkMetrics(r, st.AggMbps)
	m["jain"] = st.Jain
	m["jsd_uniform"] = st.JSDUniform
	for i := range flows {
		m[fmt.Sprintf("flow%02d_mbps", i)] = st.PerFlowMbps[i]
	}
	if sharedDelay.Len() > 0 {
		addQdelayMetrics(m, sharedDelay)
	}
	dropNonFinite(m)
	return runner.Result{Scenario: sc, Metrics: m, Events: r.Sch.Executed}
}

// linkMetrics starts the metric map every scenario runner shares:
// aggregate throughput, the bottleneck's utilization and drops, and the
// per-hop decomposition on multi-hop topologies.
func linkMetrics(r *Rig, meanMbps float64) map[string]float64 {
	m := map[string]float64{
		"mean_mbps":       meanMbps,
		"utilization":     r.Link.Utilization(),
		"dropped_packets": float64(r.Link.DroppedPackets),
	}
	// Fluid-path runs additionally report the background aggregate's
	// achieved rate and loss; emitted only when fluid is on, so exact
	// per-packet results (and their JSON) are unchanged.
	if r.Link.FluidEnabled() {
		delivered, dropped := r.Link.FluidStats()
		if now := r.Sch.Now(); now > 0 {
			m["fluid_mbps"] = delivered * 8 / now.Seconds() / 1e6
		}
		if total := delivered + dropped; total > 0 {
			m["fluid_drop_pct"] = dropped / total * 100
		}
	}
	hopMetrics(m, r)
	return m
}

// addQdelayMetrics records a delay recorder's mean/p50/p95 summary.
func addQdelayMetrics(m map[string]float64, d *metrics.DelayRecorder) {
	dMean, dQs := d.MeanQuantiles(0.5, 0.95)
	m["qdelay_mean_ms"] = dMean
	m["qdelay_p50_ms"] = dQs[0]
	m["qdelay_p95_ms"] = dQs[1]
}

// dropNonFinite removes non-finite metrics: a run that delivers nothing
// (reachable on dark/outage schedules) has no delay samples and NaN
// summaries, and one such cell must not abort JSON emission for the
// whole sweep.
func dropNonFinite(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

// hopMetrics decomposes the path into per-hop measurements on multi-hop
// topologies: each hop's utilization, drops, and mean queueing delay land
// as hopNN_<name>_* metrics. Single-bottleneck runs emit nothing extra,
// so pre-topology results (and their JSON) are unchanged.
func hopMetrics(m map[string]float64, r *Rig) {
	links := r.Net.Links()
	if len(links) <= 1 {
		return
	}
	for i, l := range links {
		prefix := fmt.Sprintf("hop%02d_%s_", i, l.Name)
		m[prefix+"util"] = l.Utilization()
		// The discipline's own counter, so CoDel's dequeue-time drops
		// (invisible to Link.DroppedPackets) are included.
		m[prefix+"drops"] = float64(l.Q.DropCount())
		m[prefix+"qdelay_ms"] = l.MeanQueueDelay().Millis()
	}
}

// RunSweep expands the grid and executes it on the pool, reporting
// progress through onProgress (which may be nil).
func RunSweep(g runner.Grid, workers int, onProgress func(done, total int, r runner.Result)) []runner.Result {
	rn := &runner.Runner{Workers: workers, OnProgress: onProgress}
	return rn.Run(g.Expand(), RunScenario)
}

// sweepRows turns a sweep's results into report rows: the cell's label
// columns, then its error if it failed, else the cells made of its
// metrics.
func sweepRows(rs []runner.Result, labels func(sc runner.Scenario) []any, cells func(m map[string]float64) []any) [][]any {
	rows := make([][]any, len(rs))
	for i, r := range rs {
		if r.Err != "" {
			rows[i] = append(labels(r.Scenario), errors.New(r.Err))
		} else {
			rows[i] = append(labels(r.Scenario), cells(r.Metrics)...)
		}
	}
	return rows
}

// optional is the metric as a cell, nil (printed "-") when the cell did
// not report it.
func optional(m map[string]float64, key string) any {
	if v, ok := m[key]; ok {
		return v
	}
	return nil
}
