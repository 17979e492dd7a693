package exp

import (
	"bytes"
	"strings"
	"testing"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
)

func TestRunChurnScenarioMetrics(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "churn", RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("nimbus"), Churn: "bulk(load=12)",
		DurationSec: 10, Seed: 1,
	})
	if r.Err != "" {
		t.Fatalf("churn scenario failed: %s", r.Err)
	}
	for _, k := range []string{
		"churn_started", "churn_completed", "churn_fct_p50_ms", "churn_fct_p95_ms",
		"churn_jain", "churn_mean_active", "churn_max_active", "churn_elastic_frac",
		"mean_mbps", "utilization", "mode_accuracy",
	} {
		if _, ok := r.Metrics[k]; !ok {
			t.Fatalf("metric %s missing: %v", k, r.Metrics)
		}
	}
	if r.Metrics["churn_completed"] < 10 {
		t.Fatalf("almost no sessions completed: %v", r.Metrics["churn_completed"])
	}
	if r.Metrics["mean_mbps"] <= 1 {
		t.Fatalf("primary flow starved: %v", r.Metrics["mean_mbps"])
	}
	if ef := r.Metrics["churn_elastic_frac"]; ef <= 0 || ef > 1 {
		t.Fatalf("elastic_frac out of range: %v", ef)
	}

	// Malformed workload specs surface as error rows, not panics.
	bad := RunScenario(runner.Scenario{
		RateMbps: 48, RTTms: 50, Scheme: spec.MustParse("cubic"),
		Churn: "bulk(load=oops)", DurationSec: 1,
	})
	if bad.Err == "" {
		t.Fatal("bad churn spec should produce an error row")
	}
}

// TestFlowMixWithChurn: a flow mix and a session workload are two axes
// of one cell, not a choice — the mix's flows run with the sessions
// arriving and departing around them, the result carries both families
// of metrics, and a grid of such cells is the same bytes on any number
// of workers.
func TestFlowMixWithChurn(t *testing.T) {
	r := RunScenario(runner.Scenario{
		RateMbps: 48, RTTms: 50, BufferMs: 100,
		FlowMix: "nimbus*2+cubic", Churn: "web(load=12)", DurationSec: 6, Seed: 1,
	})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.Metrics["churn_started"] <= 0 {
		t.Fatalf("no session started: %v", r.Metrics)
	}
	for _, k := range []string{"flow00_mbps", "flow01_mbps", "flow02_mbps", "jain", "jsd_uniform", "churn_fct_p50_ms"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %s missing: %v", k, r.Metrics)
		}
	}

	scs := runner.Grid{
		Base:      runner.Scenario{RateMbps: 48, RTTms: 20, BufferMs: 50, DurationSec: 4},
		FlowMixes: []string{"nimbus*2+cubic", "nimbus+bbr@2"},
		Churns:    []string{"web(load=12)", "bulk(load=12)"},
		Seeds:     []int64{1},
	}.Expand()
	emit := func(workers int) string {
		rs := (&runner.Runner{Workers: workers}).Run(scs, RunScenario)
		for i := range rs {
			if rs[i].Err != "" {
				t.Fatalf("%s: %s", rs[i].Scenario.Name, rs[i].Err)
			}
			rs[i].WallSec = 0
		}
		var buf bytes.Buffer
		if err := runner.WriteJSON(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := emit(1), emit(4); seq != par {
		t.Fatalf("workers=4 output differs:\n%s\nvs\n%s", par, seq)
	}
}

func TestChurnFlowCap(t *testing.T) {
	r := RunScenario(runner.Scenario{
		RateMbps: 24, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), Churn: "bulk(load=40,max=4)",
		DurationSec: 10, Seed: 3,
	})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.Metrics["churn_max_active"] > 4 {
		t.Fatalf("max=4 cap exceeded: %v active", r.Metrics["churn_max_active"])
	}
	if r.Metrics["churn_capped"] == 0 {
		t.Fatal("overloaded capped workload reports no capped arrivals")
	}
}

func TestChurnTraceWorkload(t *testing.T) {
	r := RunScenario(runner.Scenario{
		RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), Churn: "trace(src=flash-crowd)",
		DurationSec: 12, Seed: 1,
	})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	// The flash-crowd trace bursts at t=5s; by 12s plenty of its sessions
	// have arrived and completed.
	if r.Metrics["churn_started"] < 50 {
		t.Fatalf("trace replay started only %v sessions", r.Metrics["churn_started"])
	}
	if r.Metrics["churn_completed"] < 20 {
		t.Fatalf("trace replay completed only %v sessions", r.Metrics["churn_completed"])
	}
}

func TestChurnSweepDeterminism(t *testing.T) {
	g := ChurnGrid(1, true)
	// Keep the unit test quick: two schemes, two workloads, short horizon.
	g.Schemes = g.Schemes[:2]
	g.Churns = []string{"bulk(load=12)", "web(load=12)"}
	g.Base.DurationSec = 6
	run := func(workers int) string {
		return churnReport(RunSweep(g, workers, nil)).String()
	}
	seq := run(1)
	if par := run(8); par != seq {
		t.Fatalf("workers=8 output differs:\n%s\nvs\n%s", par, seq)
	}
	if strings.Contains(seq, "ERROR") {
		t.Fatalf("churn sweep has error rows:\n%s", seq)
	}
	for _, w := range g.Churns {
		if !strings.Contains(seq, w) {
			t.Fatalf("report missing workload %s:\n%s", w, seq)
		}
	}
}
