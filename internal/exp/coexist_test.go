package exp

import (
	"math"
	"strings"
	"testing"

	"nimbus/internal/metrics"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

func TestParseFlowMix(t *testing.T) {
	fss, err := ParseFlowMix("nimbus*2+cubic@10+bbr@5:25+copa(delta=0.1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(fss) != 4 {
		t.Fatalf("got %d specs", len(fss))
	}
	if fss[0].Scheme.Name != "nimbus" || fss[0].Count != 2 || fss[0].StartAt != 0 {
		t.Fatalf("item 0: %+v", fss[0])
	}
	if fss[1].Scheme.Name != "cubic" || fss[1].Count != 1 || fss[1].StartAt != 10*sim.Second || fss[1].StopAt != 0 {
		t.Fatalf("item 1: %+v", fss[1])
	}
	if fss[2].StartAt != 5*sim.Second || fss[2].StopAt != 25*sim.Second {
		t.Fatalf("item 2: %+v", fss[2])
	}
	if fss[3].Scheme.String() != "copa(delta=0.1)" {
		t.Fatalf("item 3: %+v", fss[3])
	}
	if got := FormatFlowMix(fss); got != "nimbus*2+cubic@10+bbr@5:25+copa(delta=0.1)" {
		t.Fatalf("FormatFlowMix round trip: %q", got)
	}

	for _, bad := range []string{
		"", "+", "nimbus*0", "nimbus*x", "nimbus@-1", "nimbus@5:2",
		"nimbus@x", "nosuchformat(", "cubic@1:1",
	} {
		if _, err := ParseFlowMix(bad); err == nil {
			t.Errorf("ParseFlowMix(%q) accepted", bad)
		}
	}
}

func TestAddFlowSpecsHeterogeneous(t *testing.T) {
	r := NewRig(NetConfig{RateMbps: 48, RTT: 40 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 5})
	flows, err := r.AddFlowSpecs(
		FlowSpec{Scheme: mustSpec(t, "cubic"), Count: 2},
		FlowSpec{Scheme: mustSpec(t, "bbr"), StartAt: 2 * sim.Second, StopAt: 8 * sim.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Fatalf("got %d flows", len(flows))
	}
	end := 12 * sim.Second
	r.Sch.RunUntil(end)

	st := FlowStats(flows, end)
	if len(st.PerFlowMbps) != 3 {
		t.Fatalf("per-flow stats: %v", st.PerFlowMbps)
	}
	for i, m := range st.PerFlowMbps {
		if m <= 1 {
			t.Fatalf("flow %d starved: %v Mbit/s (all: %v)", i, m, st.PerFlowMbps)
		}
	}
	// Two identical Cubic flows over the full horizon should split fairly.
	a, b := st.PerFlowMbps[0], st.PerFlowMbps[1]
	if ratio := a / b; ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("cubic/cubic split unfair: %v vs %v", a, b)
	}
	if st.Jain <= 0.5 || st.Jain > 1+1e-9 {
		t.Fatalf("jain = %v", st.Jain)
	}
	if st.JSDUniform < 0 || st.JSDUniform >= 1 {
		t.Fatalf("jsd = %v", st.JSDUniform)
	}
	// The stopped BBR flow must detach: its throughput measured after
	// StopAt is zero.
	if m := flows[2].Probe.MeanMbps(9*sim.Second, end); m > 0.5 {
		t.Fatalf("stopped flow still sending: %v Mbit/s", m)
	}

	// Unknown schemes surface as errors, not panics.
	if _, err := r.AddFlowSpecs(FlowSpec{Scheme: mustSpec(t, "quic")}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunFlowMixScenarioMetrics(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "mix", RateMbps: 48, RTTms: 40, BufferMs: 100,
		FlowMix: "nimbus+cubic", DurationSec: 10, Seed: 2,
	})
	if r.Err != "" {
		t.Fatalf("mix scenario failed: %s", r.Err)
	}
	for _, k := range []string{"flow00_mbps", "flow01_mbps", "jain", "jsd_uniform", "mean_mbps", "utilization"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Fatalf("metric %s missing: %v", k, r.Metrics)
		}
	}
	if r.Metrics["mean_mbps"] <= 1 {
		t.Fatalf("aggregate throughput: %v", r.Metrics["mean_mbps"])
	}
	bad := RunScenario(runner.Scenario{RateMbps: 48, RTTms: 40, FlowMix: "nimbus*oops", DurationSec: 1})
	if bad.Err == "" {
		t.Fatal("bad mix should produce an error row")
	}
}

func TestCoexistSweepDeterminism(t *testing.T) {
	g := CoexistGrid(1, true)
	// Keep the unit test quick: two mixes, constant link only.
	g.FlowMixes = g.FlowMixes[:2]
	g.LinkTraces = nil
	g.Base.DurationSec = 6
	run := func(workers int) string {
		return coexistReport(RunSweep(g, workers, nil)).String()
	}
	seq := run(1)
	if par := run(8); par != seq {
		t.Fatalf("workers=8 output differs:\n%s\nvs\n%s", par, seq)
	}
	if strings.Contains(seq, "ERROR") {
		t.Fatalf("coexist sweep has error rows:\n%s", seq)
	}
	for _, mix := range g.FlowMixes {
		if !strings.Contains(seq, mix) {
			t.Fatalf("report missing mix %s:\n%s", mix, seq)
		}
	}
}

func mustSpec(t *testing.T, s string) spec.Spec {
	t.Helper()
	return spec.MustParse(s)
}

func TestAddFlowSpecsRejectsInvertedWindow(t *testing.T) {
	r := NewRig(NetConfig{RateMbps: 48, RTT: 40 * sim.Millisecond, Seed: 1})
	_, err := r.AddFlowSpecs(FlowSpec{Scheme: mustSpec(t, "cubic"), StartAt: 10 * sim.Second, StopAt: 5 * sim.Second})
	if err == nil {
		t.Fatal("stop before start accepted")
	}
	// And nothing was wired: the rig still runs with zero flows.
	r.Sch.RunUntil(sim.Second)
	if r.Link.DeliveredPackets != 0 {
		t.Fatalf("rejected spec left %d packets on the rig", r.Link.DeliveredPackets)
	}
}

// TestFig16WindowIsAllActive: on Fig. 16's schedule — four flows joining
// a stagger apart, each living four staggers — the fairness figures come
// from the window where all four run, the last join to the first
// departure (the paper's [360 s, 480 s)). Every flow here delivers a
// constant rate for exactly its lifetime, so a window reaching before a
// join or past a departure reads that flow low. (Fig. 16's own window ran
// a stagger past the first flow's stop.)
func TestFig16WindowIsAllActive(t *testing.T) {
	const stagger, life = 30 * sim.Second, 120 * sim.Second
	var flows []*Flow
	for i := 0; i < 4; i++ {
		start := sim.Time(i) * stagger
		f := &Flow{Spec: FlowSpec{StartAt: start, StopAt: start + life}, Probe: &FlowProbe{Tput: metrics.NewMeter(sim.Second)}}
		for at := start; at < start+life; at += sim.Second {
			f.Probe.Tput.Add(at, 125000*(i+1)) // i+1 Mbit/s
		}
		flows = append(flows, f)
	}
	st := FlowStats(flows, 3*stagger+life)
	for i, want := range []float64{1, 2, 3, 4} {
		if got := st.SharedMbps[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("flow %d: %v Mbit/s over the all-active window, want its full rate %v", i, got, want)
		}
		if got := st.PerFlowMbps[i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("flow %d: %v Mbit/s over its own lifetime, want %v", i, got, want)
		}
	}
	if want := metrics.JainIndex([]float64{1, 2, 3, 4}); math.Abs(st.Jain-want) > 1e-9 {
		t.Errorf("Jain = %v, want %v", st.Jain, want)
	}
}
