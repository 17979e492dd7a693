package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// TestScenarioRejectsNonPositive: a link rate, RTT or horizon that is
// zero, negative, NaN or infinite, and a cross rate that is negative, NaN
// or infinite, is a scenario error on every path into NewRig (single
// scheme, flow mix, churn) — never a simulated cell whose row looks
// normal (a zero-rate link used to report mode_accuracy 1, a negative
// cross rate the metrics of no cross traffic, a NaN one ran out of
// memory).
func TestScenarioRejectsNonPositive(t *testing.T) {
	base := runner.Scenario{
		Name: "cell", RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), DurationSec: 1, Seed: 1,
	}
	positive := []float64{0, -5, math.NaN(), math.Inf(1)}
	fields := map[string]struct {
		set  func(*runner.Scenario, float64)
		bad  []float64
		rule string
	}{
		"rate_mbps":    {func(sc *runner.Scenario, v float64) { sc.RateMbps = v }, positive, "> 0"},
		"rtt_ms":       {func(sc *runner.Scenario, v float64) { sc.RTTms = v }, positive, "> 0"},
		"duration_sec": {func(sc *runner.Scenario, v float64) { sc.DurationSec = v }, positive, "> 0"},
		"cross_rate_mbps": {func(sc *runner.Scenario, v float64) { sc.Cross, sc.CrossRateMbps = "poisson", v },
			[]float64{-10, math.NaN(), math.Inf(1), math.Inf(-1)}, ">= 0"},
	}
	paths := map[string]func(*runner.Scenario){
		"single":  func(*runner.Scenario) {},
		"flowmix": func(sc *runner.Scenario) { sc.FlowMix = "nimbus+cubic" },
		"churn":   func(sc *runner.Scenario) { sc.Churn = "bulk(load=12)" },
	}
	for field, f := range fields {
		for _, v := range f.bad {
			for path, shape := range paths {
				sc := base
				shape(&sc)
				f.set(&sc, v)
				r := RunScenario(sc)
				if !strings.Contains(r.Err, field+" must be finite and "+f.rule) {
					t.Errorf("%s %s=%v: Err = %q, want it to name the field", path, field, v, r.Err)
				}
				if r.Metrics != nil || r.Events != 0 {
					t.Errorf("%s %s=%v: an error row carries results: %v, %d events", path, field, v, r.Metrics, r.Events)
				}
			}
		}
	}
	if r := RunScenario(base); r.Err != "" {
		t.Fatalf("the valid base scenario failed: %s", r.Err)
	}
	// Zero is a valid cross rate: elastic kinds ignore it.
	zero := base
	zero.Cross = "poisson"
	if r := RunScenario(zero); r.Err != "" {
		t.Fatalf("cross_rate_mbps=0 failed: %s", r.Err)
	}
}

// TestRigEventOrderPinned: two whole rigs — every event source a cell has
// (pacing, ACKs, RTOs, link completions, detector ticks, multi-hop
// forwarding) feeds the queue — must execute the events they executed on
// the plain (at, seq) heap the scheduler used to offer beside the timer
// wheel. The fingerprints (testdata/rig-*.golden) were captured on that
// heap at the last commit that had it; sim's FuzzWheelOrder checks the
// order itself on synthetic loads.
func TestRigEventOrderPinned(t *testing.T) {
	const rtt = 50 * sim.Millisecond
	cubic := spec.MustParse("cubic")
	for _, c := range []struct {
		name  string
		cfg   NetConfig
		cross []FlowSpec
	}{
		{
			name:  "single-nimbus-vs-cubic",
			cfg:   NetConfig{RateMbps: 48, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1},
			cross: []FlowSpec{{Scheme: cubic}},
		},
		{
			name: "parking-lot",
			cfg:  NetConfig{RateMbps: 24, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1, Topology: "parking-lot"},
			cross: []FlowSpec{
				{Scheme: cubic, Route: "hop1"}, {Scheme: cubic, Route: "hop2"}, {Scheme: cubic, Route: "hop3"},
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRig(c.cfg)
			flows, err := r.AddFlowSpecs(append([]FlowSpec{{Scheme: spec.MustParse("nimbus")}}, c.cross...)...)
			if err != nil {
				t.Fatal(err)
			}
			const end = 5 * sim.Second
			r.Sch.RunUntil(end)
			nimbus := flows[0].Scheme.Nimbus
			fp := fmt.Sprintf("executed\t%d\nswitches\t%d\neta\t%s\n", r.Sch.Executed, nimbus.ModeSwitches, pin(nimbus.LastEta()))
			for _, l := range r.Net.Links() {
				fp += fmt.Sprintf("%[1]s delivered packets\t%[2]d\n%[1]s delivered bytes\t%[3]d\n%[1]s drops\t%[4]d\n",
					l.Name, l.DeliveredPackets, l.DeliveredBytes, l.Q.DropCount())
			}
			for i, f := range flows {
				fp += fmt.Sprintf("flow %d Mbit/s\t%s\n", i, pin(f.Probe.MeanMbps(0, end)))
			}
			checkGolden(t, "testdata/rig-"+c.name+".golden", fp)
		})
	}
}

// TestCrossTraceCellPinned: cross=trace cells — Poisson arrivals of
// finite Cubic flows with heavy-tailed sizes — keep the results they had
// at the last commit where internal/crosstraffic had a generator of its
// own for them, before workload.Generator took the job over
// (testdata/cross-trace-cells.golden). Every arrival gap, size draw and
// per-flow stream split feeds these numbers.
func TestCrossTraceCellPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		scheme     string
		rate, load float64
	}{
		{"nimbus", 48, 12},
		{"cubic", 96, 48},
		{"copa", 96, 33.3},
	} {
		scs := runner.Grid{
			Base:    runner.Scenario{RateMbps: c.rate, RTTms: 50, BufferMs: 100, DurationSec: 20},
			Schemes: spec.Specs(c.scheme),
			Crosses: []runner.Cross{{Kind: "trace", RateMbps: c.load}},
			Seeds:   []int64{1},
		}.Expand()
		r := RunScenario(scs[0])
		if r.Err != "" {
			t.Fatalf("%s: %s", scs[0].Name, r.Err)
		}
		fmt.Fprintf(&got, "%s events\t%d\n", c.scheme, r.Events)
		// mode_accuracy is Nimbus's alone: the others read 0.
		for _, m := range []string{"mean_mbps", "dropped_packets", "qdelay_mean_ms", "mode_accuracy"} {
			fmt.Fprintf(&got, "%s %s\t%s\n", c.scheme, m, pin(r.Metrics[m]))
		}
	}
	checkGolden(t, "testdata/cross-trace-cells.golden", got.String())
}

// TestChurnCellTeardown: at the end of a churn cell the topology's flow
// table holds the flow under test and the sessions still active — every
// completed session flow was detached by its Sender.Stop — and their
// last packets went back to the shared pool.
func TestChurnCellTeardown(t *testing.T) {
	r, _, _, err := RigForScenario(runner.Scenario{
		RateMbps: 48, RTTms: 20, BufferMs: 50, Scheme: spec.MustParse("cubic"), DurationSec: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &workload.Generator{
		Net: r.Net, Rng: r.Rng.Split("churn"), Spec: workload.MustParseSpec("web(load=24)"),
		RTT: 20 * sim.Millisecond, MuBps: r.MuBps,
	}
	if err := gen.Start(0); err != nil {
		t.Fatal(err)
	}
	r.Sch.RunUntil(8 * sim.Second)
	sm := gen.Stats.Snapshot(8 * sim.Second)
	if sm.Completed < 100 {
		t.Fatalf("only %d sessions completed", sm.Completed)
	}
	if got, want := r.Net.Flows(), 1+gen.ActiveFlows(); got != want {
		t.Fatalf("%d flows attached after %d completions, want %d (the flow under test + active sessions)", got, sm.Completed, want)
	}
	if r.Net.FreePackets() == 0 {
		t.Fatal("no packet came back to the shared pool")
	}
}

// mirrorRig rebuilds a scenario's rig from exported pieces, step for step
// as benchmark/simrun.go:buildRig does (the benchmark harness is a module
// of its own and its replay pass must execute the events RunScenario
// executed).
func mirrorRig(sc runner.Scenario) (*Rig, error) {
	if sc.FlowMix != "" {
		specs, err := ParseFlowMix(sc.FlowMix)
		if err != nil {
			return nil, err
		}
		r := NewRig(NetConfigFor(sc))
		if _, err := r.AddFlowSpecs(specs...); err != nil {
			return nil, err
		}
		r.Rng.Split("mix-dlyrec")
		return r, AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, sim.FromSeconds(sc.RTTms/1e3))
	}
	r, _, _, err := RigForScenario(sc)
	if err != nil || sc.Churn == "" {
		return r, err
	}
	wsp, err := workload.ParseSpec(sc.Churn)
	if err != nil {
		return nil, err
	}
	gen := &workload.Generator{
		Net: r.Net, Rng: r.Rng.Split("churn"), Spec: wsp,
		RTT: sim.FromSeconds(sc.RTTms / 1e3), MuBps: r.MuBps,
	}
	return r, gen.Start(0)
}

// TestScenarioMatchesReplayMirror: the benchmark's replay contract, held
// in tier-1 — a rig put together outside the builder from RigForScenario,
// NewRig, AddFlowSpecs, AddCross and a generator on Split("churn")
// executes exactly the events RunScenario does, for each kind of cell the
// benchmark's workloads hold. A step added to scoreCell.build that draws
// a stream or arms an event fails here, not in a traced benchmark run.
func TestScenarioMatchesReplayMirror(t *testing.T) {
	nimbus, cubic := spec.MustParse("nimbus"), spec.MustParse("cubic")
	for name, sc := range map[string]runner.Scenario{
		"single":  {Scheme: nimbus, Cross: "cubic"},
		"churn":   {Scheme: nimbus, Churn: "web(load=12)"},
		"trace":   {Scheme: cubic, Cross: "trace", CrossRateMbps: 12},
		"flowmix": {FlowMix: "nimbus*2+cubic@1", Cross: "poisson", CrossRateMbps: 6},
	} {
		sc.RateMbps, sc.RTTms, sc.BufferMs, sc.DurationSec, sc.Seed = 48, 20, 50, 4, 1
		want := RunScenario(sc)
		if want.Err != "" {
			t.Fatalf("%s: %s", name, want.Err)
		}
		r, err := mirrorRig(sc)
		if err != nil {
			t.Fatalf("%s: mirror: %v", name, err)
		}
		r.Sch.RunUntil(sim.FromSeconds(sc.DurationSec))
		if r.Sch.Executed != want.Events {
			t.Errorf("%s: the mirror executed %d events, RunScenario %d", name, r.Sch.Executed, want.Events)
		}
	}
}

// TestScenarioMetricKeys: the exact metric names of one cell per kind, so
// the one collector cannot drop, rename or leak a key between kinds
// unnoticed (a sweep's JSON, the result cache and every report read
// metrics by name).
func TestScenarioMetricKeys(t *testing.T) {
	const (
		link   = "dropped_packets mean_mbps qdelay_mean_ms qdelay_p50_ms qdelay_p95_ms utilization"
		nimbus = " competitive_mode eta mode_accuracy mode_switches"
		mix3   = " flow00_mbps flow01_mbps flow02_mbps jain jsd_uniform"
		churn  = " churn_capped churn_completed churn_elastic_frac churn_fct_mean_ms churn_fct_p50_ms churn_fct_p95_ms" +
			" churn_jain churn_max_active churn_mbps churn_mean_active churn_started"
		hops = " hop00_hop1_drops hop00_hop1_qdelay_ms hop00_hop1_util hop01_hop2_drops hop01_hop2_qdelay_ms hop01_hop2_util" +
			" hop02_hop3_drops hop02_hop3_qdelay_ms hop02_hop3_util"
	)
	nimbusSpec, cubic := spec.MustParse("nimbus"), spec.MustParse("cubic")
	for _, c := range []struct {
		name string
		sc   runner.Scenario
		want string
	}{
		{"nimbus", runner.Scenario{Scheme: nimbusSpec}, link + nimbus},
		{"cubic", runner.Scenario{Scheme: cubic}, link},
		{"copa", runner.Scenario{Scheme: spec.MustParse("copa")}, link}, // sweeps do not score Copa: no mode_accuracy
		{"flowmix", runner.Scenario{FlowMix: "nimbus*2+cubic"}, link + mix3},
		{"churn", runner.Scenario{Scheme: nimbusSpec, Churn: "bulk(load=12)"}, link + nimbus + churn},
		{"flowmix+churn", runner.Scenario{FlowMix: "nimbus*2+cubic", Churn: "bulk(load=12)"}, link + mix3 + churn},
		{"fluid", runner.Scenario{Scheme: cubic, FluidCross: "on"}, link + " fluid_drop_pct fluid_mbps"},
		{"parking-lot", runner.Scenario{Scheme: cubic, Topology: "parking-lot"}, link + hops},
	} {
		sc := c.sc
		sc.RateMbps, sc.RTTms, sc.BufferMs, sc.DurationSec, sc.Seed = 24, 20, 50, 3, 1
		sc.Cross, sc.CrossRateMbps = "cbr", 6
		r := RunScenario(sc)
		if r.Err != "" {
			t.Fatalf("%s: %s", c.name, r.Err)
		}
		got := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		want := strings.Fields(c.want)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metric keys\n got:  %s\n want: %s", c.name, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}

// TestRunScenarioRecyclesChunks: RunScenario hands a finished cell's
// sample chunks to the next cell, and no metric can tell. A cell run by
// hand and never released is the reference for each kind; then the same
// cells run four at a time, drawing their chunks from whatever the cells
// finishing beside them just gave back (under -race this is the test
// that two workers exchange chunks through the pool).
func TestRunScenarioRecyclesChunks(t *testing.T) {
	var scs []runner.Scenario
	for _, sc := range []runner.Scenario{
		{Scheme: spec.MustParse("nimbus"), Cross: "cubic"},
		{Scheme: spec.MustParse("cubic"), Cross: "poisson", CrossRateMbps: 12},
		{FlowMix: "nimbus*2+cubic@1"},
		{Scheme: spec.MustParse("cubic"), Churn: "web(load=12)"},
	} {
		sc.RateMbps, sc.RTTms, sc.BufferMs, sc.DurationSec = 48, 20, 50, 4
		for seed := int64(1); seed <= 2; seed++ {
			sc.Seed = seed
			scs = append(scs, sc)
		}
	}
	want := make([]map[string]float64, len(scs))
	multi := 0 // cells whose delay recorder holds more than one chunk
	for i, sc := range scs {
		b, err := BuildScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		end := sim.FromSeconds(sc.DurationSec)
		b.Rig.Sch.RunUntil(end)
		want[i] = b.Metrics(end)
		if b.delay.Len() > 4096 {
			multi++
		}
		if i == 0 {
			b.release()
			if n := b.delay.Len() + b.Flows[0].Probe.Delay.Len() + b.Flows[0].Probe.RTTms.Len(); n != 0 {
				t.Fatalf("a released cell still holds %d samples", n)
			}
		}
	}
	if multi < len(scs)/2 {
		t.Fatalf("%d of %d cells recorded more than one chunk of delay samples: the case needs most to", multi, len(scs))
	}
	for _, workers := range []int{1, 4} {
		for i, r := range (&runner.Runner{Workers: workers}).Run(scs, RunScenario) {
			if r.Err != "" {
				t.Fatal(r.Err)
			}
			if len(r.Metrics) != len(want[i]) {
				t.Fatalf("workers=%d, cell %d: %d metrics, unreleased cell %d", workers, i, len(r.Metrics), len(want[i]))
			}
			for k, v := range want[i] {
				if got := r.Metrics[k]; math.Float64bits(got) != math.Float64bits(v) {
					t.Errorf("workers=%d, cell %d: %s = %v on recycled chunks, %v on its own", workers, i, k, got, v)
				}
			}
		}
	}
}
