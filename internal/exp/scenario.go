package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
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
// perfect mode accuracy), the link axes must resolve to a schedule, the
// AQM must be one there is, and the topology and fluid specs must parse.
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
	if _, ok := netem.AQMByName(sc.AQM); !ok {
		return NetConfig{}, fmt.Errorf("exp: scenario %q: unknown AQM %q (have %s)", sc.Name, sc.AQM, netem.AQMNames(", "))
	}
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

// cellFor translates a declarative scenario into the cell it names.
// Everything a flag or a grid file can spell is checked here, before the
// rig exists.
func cellFor(sc runner.Scenario) (scoreCell, error) {
	cfg, err := netConfigChecked(sc)
	if err != nil {
		return scoreCell{}, err
	}
	c := scoreCell{net: cfg, flows: []FlowSpec{{Scheme: sc.Scheme}}}
	if sc.FlowMix != "" {
		c.mixed = true
		if c.flows, err = ParseFlowMix(sc.FlowMix); err != nil {
			return scoreCell{}, err
		}
	}
	// A zero cross RTT is the scenario's own.
	crossRTT := sim.FromSeconds(math.Max(sc.CrossRTTms, 0) / 1e3)
	if c.cross, c.elastic, err = crossFor(sc.Cross, "", sc.CrossRateMbps*1e6, crossRTT); err != nil {
		return scoreCell{}, err
	}
	if sc.Churn != "" {
		wsp, err := workload.ParseSpec(sc.Churn)
		if err != nil {
			return scoreCell{}, err
		}
		c.churn = &wsp
	}
	return c, nil
}

// RigForScenario builds the scenario's cell less its churn and its
// scorer: the bottleneck, the flow under test with its probe, the cross
// traffic. It survives because the benchmark harness (benchmark/simrun.go
// buildRig, which a change to the simulator may not edit) compiles
// against it and adds the churn generator itself; everything else calls
// BuildScenario.
func RigForScenario(sc runner.Scenario) (*Rig, Scheme, *FlowProbe, error) {
	c, err := cellFor(sc)
	if err != nil {
		return nil, Scheme{}, nil, err
	}
	c.churn = nil
	b, err := c.build()
	if err != nil {
		return nil, Scheme{}, nil, err
	}
	return b.Rig, b.Flows[0].Scheme, b.Flows[0].Probe, nil
}

// BuildScenario materializes a declarative scenario of any kind, ready
// to run to sc.DurationSec: a single scheme under test or a flow mix,
// the cross traffic, and — with Churn set — a session workload arriving
// and departing around them on the same rig (scoreCell.build). A Nimbus
// scheme under test is scored from a quarter of the horizon on, against
// the cross kind's elasticity or, in a churn cell, the workload's exact
// ground truth: is any elastic session flow active right now. Nimbus
// only: scoring Copa arms a sampler event, which would change the copa
// cells' event counts and every cached result. Flows in a mix are not
// scored.
func BuildScenario(sc runner.Scenario) (*Cell, error) {
	c, err := cellFor(sc)
	if err != nil {
		return nil, err
	}
	b, err := c.build()
	if err != nil {
		return nil, err
	}
	if s := b.Flows[0].Scheme; !c.mixed && s.Nimbus != nil {
		truth := func(sim.Time) bool { return c.elastic }
		if b.Churn != nil {
			truth = func(sim.Time) bool { return b.Churn.ElasticActive() }
		}
		b.acc = scoreModes(b.Rig, s, truth, sim.FromSeconds(sc.DurationSec)/4)
	}
	return b, nil
}

// RunScenario is the standard runner.RunFunc: it builds the scenario,
// runs it to its horizon, reports the cell's Metrics and hands the cell's
// sample chunks to the next cell. The engine fills in wall time.
func RunScenario(sc runner.Scenario) runner.Result {
	b, err := BuildScenario(sc)
	if err != nil {
		return runner.Result{Scenario: sc, Err: err.Error()}
	}
	end := sim.FromSeconds(sc.DurationSec)
	b.Rig.Sch.RunUntil(end)
	res := runner.Result{Scenario: sc, Metrics: b.Metrics(end), Events: b.Rig.Sch.Executed}
	b.release()
	return res
}

// Metrics are the measurements every sweep wants of a cell run to end.
// Each group is emitted only by the cells that have it, so a cell's
// result (and its JSON) does not change when another kind gains a metric.
func (b *Cell) Metrics(end sim.Time) map[string]float64 {
	r, st := b.Rig, FlowStats(b.Flows, end)
	m := map[string]float64{
		"mean_mbps":       st.AggMbps,
		"utilization":     r.Link.Utilization(),
		"dropped_packets": float64(r.Link.DroppedPackets),
	}
	mean, qs := b.delay.MeanQuantiles(0.5, 0.95)
	m["qdelay_mean_ms"], m["qdelay_p50_ms"], m["qdelay_p95_ms"] = mean, qs[0], qs[1]
	// A flow mix: per-flow throughput, and fairness over the interval
	// where every flow is active.
	if b.mixed {
		m["jain"] = st.Jain
		m["jsd_uniform"] = st.JSDUniform
		for i, mbps := range st.PerFlowMbps {
			m[fmt.Sprintf("flow%02d_mbps", i)] = mbps
		}
	}
	// Fluid cross traffic: the background aggregate's achieved rate and
	// loss.
	if r.Link.FluidEnabled() {
		delivered, dropped := r.Link.FluidStats()
		if now := r.Sch.Now(); now > 0 {
			m["fluid_mbps"] = delivered * 8 / now.Seconds() / 1e6
		}
		if total := delivered + dropped; total > 0 {
			m["fluid_drop_pct"] = dropped / total * 100
		}
	}
	// A multi-hop topology: the path decomposed per hop.
	if links := r.Net.Links(); len(links) > 1 {
		for i, l := range links {
			prefix := fmt.Sprintf("hop%02d_%s_", i, l.Name)
			m[prefix+"util"] = l.Utilization()
			// The discipline's own counter, so CoDel's dequeue-time drops
			// (invisible to Link.DroppedPackets) are included.
			m[prefix+"drops"] = float64(l.Q.DropCount())
			m[prefix+"qdelay_ms"] = l.MeanQueueDelay().Millis()
		}
	}
	// Session churn: the workload's streaming summary.
	if b.Churn != nil {
		sm := b.Churn.Stats.Snapshot(end)
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
	// A scored Nimbus flow: mode telemetry and time-weighted accuracy.
	if b.acc != nil {
		n := b.Flows[0].Scheme.Nimbus
		m["mode_switches"] = float64(n.ModeSwitches)
		m["eta"] = n.LastEta()
		m["competitive_mode"] = 0
		if n.Mode() == core.ModeCompetitive {
			m["competitive_mode"] = 1
		}
		m["mode_accuracy"] = b.acc.Accuracy()
	}
	// A run that delivers nothing (reachable on dark/outage schedules) has
	// no delay samples and NaN summaries, and one such cell must not abort
	// JSON emission for the whole sweep.
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
	return m
}

// RunSweep expands the grid and executes it on the pool, reporting
// progress through onProgress (which may be nil).
func RunSweep(g runner.Grid, workers int, onProgress func(done, total int, r runner.Result)) []runner.Result {
	rn := &runner.Runner{Workers: workers, OnProgress: onProgress}
	return rn.Run(g.Expand(), RunScenario)
}

// Sweep is the CLIs' one local sweep path (nimbus-sim's list-valued
// flags, nimbus-bench -grid): it runs the grid on the pool with progress
// on stderr, prints the sweep table, writes every row to out (.json or
// .csv; "" writes nothing) and returns the exit status, which is 1 if out
// could not be written or any row failed.
func Sweep(g runner.Grid, workers int, out string) int {
	start := time.Now()
	rs := RunSweep(g, workers, runner.Progress(os.Stderr))
	PrintSweep(os.Stdout, rs, time.Since(start).Seconds())
	if out != "" {
		if err := runner.WriteFile(out, rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	}
	return SweepStatus(rs)
}

// PrintSweep writes the sweep table, local or remote: one row per cell
// (an ERROR row for a failed one), then the events of the cells that ran
// over wall, the sweep's wall-clock seconds (no line when wall is 0).
func PrintSweep(w io.Writer, rs []runner.Result, wall float64) {
	var events uint64
	fmt.Fprintf(w, "%-40s %10s %12s %12s %12s %12s\n", "scenario", "Mbit/s", "qdelay p95", "mode sw", "events", "events/s")
	for _, r := range rs {
		if r.Err != "" {
			fmt.Fprintf(w, "%-40s ERROR: %s\n", r.Scenario.Name, r.Err)
			continue
		}
		events += r.Events
		modeSw := "-"
		if v, ok := r.Metrics["mode_switches"]; ok {
			modeSw = strconv.Itoa(int(v))
		}
		fmt.Fprintf(w, "%-40s %10.2f %9.1f ms %12s %12d %12.0f\n",
			r.Scenario.Name, r.Metrics["mean_mbps"], r.Metrics["qdelay_p95_ms"], modeSw, r.Events, r.EventsPerSec())
	}
	if wall > 0 {
		fmt.Fprintf(w, "total: %d events in %.1fs wall (%.0f events/s aggregate)\n",
			events, wall, float64(events)/wall)
	}
}

// SweepStatus is a sweep's exit status: 1, with a count on stderr, when
// any cell failed. Error rows are printed and written like the rest, but
// a sweep that has them did not succeed.
func SweepStatus(rs []runner.Result) int {
	if n := runner.Failed(rs); n > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d cells failed\n", n, len(rs))
		return 1
	}
	return 0
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
