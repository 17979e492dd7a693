package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

func TestScheduleForScenario(t *testing.T) {
	if s, err := ScheduleForScenario(runner.Scenario{RateMbps: 48}); err != nil || s != nil {
		t.Fatalf("constant scenario: schedule %v, err %v", s, err)
	}
	s, err := ScheduleForScenario(runner.Scenario{RateMbps: 48, LinkTrace: "cell-ramp"})
	if err != nil || s == nil || s.Constant() {
		t.Fatalf("trace scenario: schedule %v, err %v", s, err)
	}
	s, err = ScheduleForScenario(runner.Scenario{RateMbps: 48, RatePattern: "step:6:24:2000"})
	if err != nil || s == nil || s.MaxBps() != 24e6 {
		t.Fatalf("pattern scenario: schedule %v, err %v", s, err)
	}
	if _, err := ScheduleForScenario(runner.Scenario{LinkTrace: "cell-ramp", RatePattern: "step:6:24:2000"}); err == nil {
		t.Fatal("trace+pattern should be rejected")
	}
	if _, err := ScheduleForScenario(runner.Scenario{LinkTrace: "no-such-trace"}); err == nil {
		t.Fatal("unknown trace should be rejected")
	}
	if _, err := ScheduleForScenario(runner.Scenario{RatePattern: "warp:9"}); err == nil {
		t.Fatal("unknown pattern should be rejected")
	}
}

// TestRunScenarioVaryingLink: a scheme on a traced link achieves a
// throughput bounded by the trace's mean capacity, not the nominal rate,
// and error rows (not panics) surface bad trace names through the runner.
func TestRunScenarioVaryingLink(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "vary", RateMbps: 48, RTTms: 40, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), LinkTrace: "cell-ramp", DurationSec: 10, Seed: 3,
	})
	if r.Err != "" {
		t.Fatalf("scenario failed: %s", r.Err)
	}
	sched, _ := ScheduleForScenario(runner.Scenario{LinkTrace: "cell-ramp"})
	meanMbps := sched.MeanBps(0, 10*sim.Second) / 1e6
	if got := r.Metrics["mean_mbps"]; got <= 1 || got > meanMbps {
		t.Fatalf("mean_mbps = %v, want within (1, %v] on the traced link", got, meanMbps)
	}
	if u := r.Metrics["utilization"]; u > 1.0+1e-9 {
		t.Fatalf("utilization %v > 1", u)
	}
	bad := RunScenario(runner.Scenario{RateMbps: 48, RTTms: 40, Scheme: spec.MustParse("cubic"), LinkTrace: "nope", DurationSec: 1})
	if bad.Err == "" {
		t.Fatal("unknown trace should produce an error row")
	}
}

// TestRunScenarioDarkLinkEmits: a run that delivers nothing (the link is
// dark for the whole horizon) must not poison result emission with NaN
// metrics — one such cell used to abort WriteJSON for the entire sweep.
func TestRunScenarioDarkLinkEmits(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "dark", RateMbps: 24, RTTms: 40, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), RatePattern: "outage:0:10000", DurationSec: 5, Seed: 1,
	})
	if r.Err != "" {
		t.Fatalf("dark scenario failed: %s", r.Err)
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %s is non-finite: %v", k, v)
		}
	}
	var buf bytes.Buffer
	if err := runner.WriteJSON(&buf, []runner.Result{r}); err != nil {
		t.Fatalf("dark-link result does not serialize: %v", err)
	}
	if _, ok := r.Metrics["qdelay_p95_ms"]; ok {
		t.Fatal("zero-sample delay summary should be omitted, not reported")
	}
}

// TestMobileSweepDeterminism is the acceptance check for the registry
// family: ≥3 embedded traces × 3 schemes through the runner, identical
// formatted output at workers=1 and workers=8.
func TestMobileSweepDeterminism(t *testing.T) {
	g := MobileGrid(1, true)
	g.Base.DurationSec = 5 // keep the unit test quick; the axes are what matter
	if len(g.LinkTraces) < 3 || len(g.Schemes) < 3 {
		t.Fatalf("mobile grid too small: %d traces x %d schemes", len(g.LinkTraces), len(g.Schemes))
	}
	run := func(workers int) string {
		return mobileReport(RunSweep(g, workers, nil)).String()
	}
	seq := run(1)
	if par := run(8); par != seq {
		t.Fatalf("workers=8 output differs from workers=1:\n%s\nvs\n%s", par, seq)
	}
	if strings.Contains(seq, "ERROR") {
		t.Fatalf("mobile sweep has error rows:\n%s", seq)
	}
	for _, trace := range g.LinkTraces {
		if !strings.Contains(seq, trace) {
			t.Fatalf("report missing trace %s:\n%s", trace, seq)
		}
	}
}

// TestMobileErrorRowKeepsLabels: a failed cell prints as an ERROR row
// under both of its labels (the scheme used to be dropped) and fails the
// report.
func TestMobileErrorRowKeepsLabels(t *testing.T) {
	rep := mobileReport([]runner.Result{{
		Scenario: runner.Scenario{LinkTrace: "outage", Scheme: spec.MustParse("bbr")},
		Err:      "exp: boom",
	}})
	if want := "outage     bbr      ERROR: exp: boom\n"; !strings.Contains(rep.String(), want) {
		t.Errorf("error row not rendered as %q:\n%s", want, rep)
	}
	if !rep.Failed() {
		t.Error("a report with a failed cell did not report failure")
	}
}
