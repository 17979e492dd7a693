package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// TestScenarioRejectsNonPositive: a link rate, RTT or horizon that is
// zero, negative, NaN or infinite is a scenario error on every path into
// NewRig (single scheme, flow mix, churn) — never a simulated cell whose
// row looks normal (a zero-rate link used to report mode_accuracy 1).
func TestScenarioRejectsNonPositive(t *testing.T) {
	base := runner.Scenario{
		Name: "cell", RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("cubic"), DurationSec: 1, Seed: 1,
	}
	fields := map[string]func(*runner.Scenario, float64){
		"rate_mbps":    func(sc *runner.Scenario, v float64) { sc.RateMbps = v },
		"rtt_ms":       func(sc *runner.Scenario, v float64) { sc.RTTms = v },
		"duration_sec": func(sc *runner.Scenario, v float64) { sc.DurationSec = v },
	}
	paths := map[string]func(*runner.Scenario){
		"single":  func(*runner.Scenario) {},
		"flowmix": func(sc *runner.Scenario) { sc.FlowMix = "nimbus+cubic" },
		"churn":   func(sc *runner.Scenario) { sc.Churn = "bulk(load=12)" },
	}
	for field, set := range fields {
		for _, v := range []float64{0, -5, math.NaN(), math.Inf(1)} {
			for path, shape := range paths {
				sc := base
				shape(&sc)
				set(&sc, v)
				r := RunScenario(sc)
				if !strings.Contains(r.Err, field+" must be finite and > 0") {
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
}

// TestRigHeapWheelEquivalent: the same rig on the 4-ary heap and on the
// timer wheel executes the same events in the same order, so NetConfigFor
// choosing the queue by scenario (wheel exactly for churn cells) can never
// change a result. Compared at rig level — every event source a cell has
// (pacing, ACKs, RTOs, link completions, detector ticks, multi-hop
// forwarding) feeds the queue — not just on sim's synthetic timer loads.
func TestRigHeapWheelEquivalent(t *testing.T) {
	const rtt = 50 * sim.Millisecond
	cubic := spec.MustParse("cubic")
	cases := map[string]struct {
		cfg   NetConfig
		cross []FlowSpec
	}{
		"single-nimbus-vs-cubic": {
			cfg:   NetConfig{RateMbps: 48, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1},
			cross: []FlowSpec{{Scheme: cubic}},
		},
		"parking-lot": {
			cfg: NetConfig{RateMbps: 24, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1, Topology: "parking-lot"},
			cross: []FlowSpec{
				{Scheme: cubic, Route: "hop1"}, {Scheme: cubic, Route: "hop2"}, {Scheme: cubic, Route: "hop3"},
			},
		},
	}
	run := func(t *testing.T, cfg NetConfig, cross []FlowSpec, wheel bool) string {
		cfg.TimerWheel = wheel
		r := NewRig(cfg)
		if r.Sch.UsingTimerWheel() != wheel {
			t.Fatalf("TimerWheel=%v but UsingTimerWheel()=%v", wheel, r.Sch.UsingTimerWheel())
		}
		flows, err := r.AddFlowSpecs(append([]FlowSpec{{Scheme: spec.MustParse("nimbus")}}, cross...)...)
		if err != nil {
			t.Fatal(err)
		}
		const end = 5 * sim.Second
		r.Sch.RunUntil(end)
		nimbus := flows[0].Scheme.Nimbus
		fp := fmt.Sprintf("executed=%d switches=%d eta=%v", r.Sch.Executed, nimbus.ModeSwitches, nimbus.LastEta())
		for _, l := range r.Net.Links() {
			fp += fmt.Sprintf(" %s:%d/%d/%d", l.Name, l.DeliveredPackets, l.DeliveredBytes, l.Q.DropCount())
		}
		for _, f := range flows {
			fp += fmt.Sprintf(" %v", f.Probe.MeanMbps(0, end))
		}
		return fp
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			heap, wheel := run(t, c.cfg, c.cross, false), run(t, c.cfg, c.cross, true)
			if heap != wheel {
				t.Fatalf("heap and wheel diverge:\n heap:  %s\n wheel: %s", heap, wheel)
			}
		})
	}
}

// TestNetConfigForSelectsWheelForChurn pins the selection rule: the wheel
// exactly when the scenario has a churn workload.
func TestNetConfigForSelectsWheelForChurn(t *testing.T) {
	if NetConfigFor(runner.Scenario{RateMbps: 48}).TimerWheel {
		t.Fatal("a cell without churn selected the timer wheel")
	}
	if !NetConfigFor(runner.Scenario{RateMbps: 48, Churn: "bulk(load=12)"}).TimerWheel {
		t.Fatal("a churn cell did not select the timer wheel")
	}
}
