package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
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

// TestRigEventOrderPinned: two whole rigs — every event source a cell has
// (pacing, ACKs, RTOs, link completions, detector ticks, multi-hop
// forwarding) feeds the queue — must execute the events they executed on
// the plain (at, seq) heap the scheduler used to offer beside the timer
// wheel. The fingerprints were captured on that heap at the last commit
// that had it; sim's FuzzWheelOrder checks the order itself on synthetic
// loads.
func TestRigEventOrderPinned(t *testing.T) {
	const rtt = 50 * sim.Millisecond
	cubic := spec.MustParse("cubic")
	cases := map[string]struct {
		cfg   NetConfig
		cross []FlowSpec
		want  string
	}{
		"single-nimbus-vs-cubic": {
			cfg:   NetConfig{RateMbps: 48, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1},
			cross: []FlowSpec{{Scheme: cubic}},
			want:  "executed=60882 switches=0 eta=1.5516317398236044 bn:19262/28893000/969 3.7464 42.4824",
		},
		"parking-lot": {
			cfg: NetConfig{RateMbps: 24, RTT: rtt, Buffer: 100 * sim.Millisecond, Seed: 1, Topology: "parking-lot"},
			cross: []FlowSpec{
				{Scheme: cubic, Route: "hop1"}, {Scheme: cubic, Route: "hop2"}, {Scheme: cubic, Route: "hop3"},
			},
			want: "executed=88635 switches=0 eta=1.707315263516114 hop1:9706/14559000/454 hop2:9705/14557500/411 hop3:9706/14559000/429 1.8504 21.372 21.4248 21.4416",
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRig(c.cfg)
			flows, err := r.AddFlowSpecs(append([]FlowSpec{{Scheme: spec.MustParse("nimbus")}}, c.cross...)...)
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
			if fp != c.want {
				t.Fatalf("event order moved:\n got:  %s\n want: %s", fp, c.want)
			}
		})
	}
}

// TestCrossTraceCellPinned: cross=trace cells — Poisson arrivals of
// finite Cubic flows with heavy-tailed sizes — keep the results they had
// at the last commit where internal/crosstraffic had a generator of its
// own for them, before workload.Generator took the job over. Every
// arrival gap, size draw and per-flow stream split feeds these numbers.
func TestCrossTraceCellPinned(t *testing.T) {
	for _, c := range []struct {
		scheme            string
		rate, load        float64
		events            uint64
		mbps, drops, qdly float64
		accuracy          float64 // nimbus only
	}{
		{"nimbus", 48, 12, 267161, 37.098, 1599, 13.461784836778277, 0.9253333333333333},
		{"cubic", 96, 48, 478113, 45.7548, 3156, 40.742680839492266, 0},
		{"copa", 96, 33.3, 448775, 80.2524, 1428, 3.3547248466737423, 0},
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
		m := r.Metrics
		if r.Events != c.events || m["mean_mbps"] != c.mbps || m["dropped_packets"] != c.drops ||
			m["qdelay_mean_ms"] != c.qdly || m["mode_accuracy"] != c.accuracy {
			t.Errorf("%s moved: events=%d mean_mbps=%v dropped_packets=%v qdelay_mean_ms=%v mode_accuracy=%v, want %d %v %v %v %v",
				scs[0].Name, r.Events, m["mean_mbps"], m["dropped_packets"], m["qdelay_mean_ms"], m["mode_accuracy"],
				c.events, c.mbps, c.drops, c.qdly, c.accuracy)
		}
	}
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
