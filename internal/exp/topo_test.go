package exp

import (
	"strings"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// TestParkingLotPenalty: the classic multi-bottleneck result — a flow
// crossing three congested hops gets less than the single-hop flows it
// competes with at each hop.
func TestParkingLotPenalty(t *testing.T) {
	tab := Table{Cols: topoCols, Rows: [][]any{topoParkingLot("cubic", 1, 15*sim.Second)}}
	mbps, cross := tab.Num(0, "Mbit/s"), tab.Num(0, "crossMbps")
	if !(mbps > 0) {
		t.Fatalf("long flow starved entirely: %.2f Mbit/s", mbps)
	}
	if !(mbps < cross) {
		t.Fatalf("long flow (%.2f) should get less than single-hop flows (%.2f)", mbps, cross)
	}
	hops := tab.Rows[0][len(topoCols)-1].(hopList)
	if len(hops) != 3 {
		t.Fatalf("want 3 hops, got %v", hops)
	}
	for i, h := range hops {
		if util := h[0]; util < 0.8 {
			t.Errorf("hop %d underutilized: %.2f", i, util)
		}
	}
}

// TestRevCongestedDegrades: congesting the ACK path costs forward
// throughput relative to the same scheme on an ideal reverse path.
func TestRevCongestedDegrades(t *testing.T) {
	dur := 15 * sim.Second
	tab := Table{Cols: topoCols, Rows: [][]any{topoRevCongested("cubic", 1, dur)}}
	congested := tab.Num(0, "Mbit/s")

	r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1})
	probe := r.AddFlow(MustScheme("cubic", r.MuBps), 50*sim.Millisecond, 0)
	r.Sch.RunUntil(dur)
	ideal := probe.MeanMbps(0, dur)

	if !(congested < ideal) {
		t.Fatalf("congested ACK path (%.2f) should cost throughput vs ideal (%.2f)", congested, ideal)
	}
	if !(congested > 0) {
		t.Fatal("flow starved entirely under ACK congestion")
	}
	// The reverse link is the second hop of the preset; it must have
	// seen real contention.
	if util := tab.Rows[0][len(topoCols)-1].(hopList)[1][0]; util < 0.5 {
		t.Fatalf("reverse link barely used: %.2f", util)
	}
}

// TestScenarioTopologyMetrics: a declarative scenario on a multi-hop
// topology reports per-hop metrics; the default topology reports none.
func TestScenarioTopologyMetrics(t *testing.T) {
	sc := runner.Scenario{
		RateMbps: 24, RTTms: 20, BufferMs: 50, DurationSec: 3,
		Scheme: spec.MustParse("cubic"), Topology: "access-hop", Seed: 1,
	}
	res := RunScenario(sc)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	for _, k := range []string{"hop00_access_util", "hop01_bn_util", "hop01_bn_qdelay_ms"} {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("missing per-hop metric %s (have %v)", k, res.Metrics)
		}
	}
	sc.Topology = ""
	res = RunScenario(sc)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	for k := range res.Metrics {
		if strings.HasPrefix(k, "hop") {
			t.Errorf("single topology leaked per-hop metric %s", k)
		}
	}
}

// TestScenarioTopologyErrors: malformed topologies are scenario errors,
// not panics, in both the single-scheme and flow-mix paths.
func TestScenarioTopologyErrors(t *testing.T) {
	sc := runner.Scenario{
		RateMbps: 24, RTTms: 20, BufferMs: 50, DurationSec: 1,
		Scheme: spec.MustParse("cubic"), Topology: "no-such-topo", Seed: 1,
	}
	if res := RunScenario(sc); res.Err == "" || !strings.Contains(res.Err, "unknown topology") {
		t.Fatalf("want topology error, got %q", res.Err)
	}
	sc.Scheme = spec.Spec{}
	sc.FlowMix = "cubic*2"
	if res := RunScenario(sc); res.Err == "" || !strings.Contains(res.Err, "unknown topology") {
		t.Fatalf("flow-mix path: want topology error, got %q", res.Err)
	}
}

// TestFlowSpecRouteValidation: AddFlowSpecs rejects unknown routes before
// touching the rig.
func TestFlowSpecRouteValidation(t *testing.T) {
	r := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1, Topology: "parking-lot"})
	_, err := r.AddFlowSpecs(
		FlowSpec{Scheme: spec.MustParse("cubic"), Route: "hop9"},
	)
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("want route error, got %v", err)
	}
	if r.Link.DeliveredPackets != 0 || r.Net.Route("hop2") == nil {
		t.Fatal("failed AddFlowSpecs disturbed the rig")
	}
	// Valid routes attach fine.
	flows, err := r.AddFlowSpecs(FlowSpec{Scheme: spec.MustParse("cubic"), Route: "hop2"})
	if err != nil || len(flows) != 1 {
		t.Fatalf("valid route rejected: %v", err)
	}
}

// TestLinkOracleInstantaneous: the oracle reports the schedule's rate at
// the current instant — including exactly at a transition, where the
// link's internal drain rate depends on event ordering. The probe below
// is scheduled at construction time for the *second* transition's
// timestamp; the link's event for that transition is only created when
// the first transition fires, so the probe runs first and the internal
// drain rate still reads the old 6e6 there. The oracle must answer from
// the schedule.
func TestLinkOracleInstantaneous(t *testing.T) {
	sch, err := netem.NewRateSchedule([]netem.RatePoint{
		{At: 0, Bps: 24e6},
		{At: 100 * sim.Millisecond, Bps: 6e6},
		{At: 200 * sim.Millisecond, Bps: 12e6},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1, Schedule: sch})
	oracle := LinkOracle{Link: r.Link}
	var atSecond, internal float64
	r.Sch.AtFunc(200*sim.Millisecond, func() {
		atSecond = oracle.Mu()
		internal = r.Link.Rate()
	})
	r.Sch.RunUntil(300 * sim.Millisecond)
	if internal != 6e6 {
		t.Fatalf("test premise broken: internal drain rate at the race is %g, want the stale 6e6", internal)
	}
	if atSecond != 12e6 {
		t.Fatalf("oracle at second transition = %g, want the scheduled 12e6", atSecond)
	}
}

// TestMultiHopOracleReadsBottleneck: in a multi-hop rig with a
// time-varying bottleneck, flows get the bottleneck hop's oracle, not an
// access hop's.
func TestMultiHopOracleReadsBottleneck(t *testing.T) {
	sched := netem.SquareWave(6e6, 24e6, 100*sim.Millisecond)
	r := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1,
		Topology: "access-hop", Schedule: sched})
	if !r.Link.Varying() {
		t.Fatal("bottleneck link should carry the schedule")
	}
	if r.Link.Name != "bn" {
		t.Fatalf("rig bottleneck is %q, want bn", r.Link.Name)
	}
	links := r.Net.Links()
	if links[0].Name != "access" || links[0].Varying() {
		t.Fatal("access hop should stay constant-rate")
	}
	oracle := LinkOracle{Link: r.Link}
	var mid float64
	r.Sch.AtFunc(75*sim.Millisecond, func() { mid = oracle.Mu() })
	r.Sch.RunUntil(100 * sim.Millisecond)
	if mid != 6e6 {
		t.Fatalf("oracle mid-low-phase = %g, want 6e6 (the bottleneck's), not the access rate", mid)
	}
}

// TestRigMixedRateBottleneck: a chain mixing a scaled access link with an
// absolute-rate link must bottleneck at the slower link for the actual
// nominal rate — Rig.Link, the oracle, and the inherited schedule all
// hang off that choice.
func TestRigMixedRateBottleneck(t *testing.T) {
	r := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1,
		Topology: "access(x4,5ms)->bn(48mbps)"})
	if r.Link.Name != "bn" {
		t.Fatalf("bottleneck link %q, want bn (access is x4 = 96 Mbit/s)", r.Link.Name)
	}
	if got := r.Link.Rate(); got != 48e6 {
		t.Fatalf("bottleneck rate %g, want 48e6", got)
	}
	// µ oracles must see the bottleneck's resolved capacity, not the
	// scenario's nominal rate.
	if r.MuBps != 48e6 {
		t.Fatalf("MuBps %g, want the bottleneck's 48e6", r.MuBps)
	}
	single := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1})
	if single.MuBps != 24e6 {
		t.Fatalf("single-topology MuBps %g, want the nominal 24e6", single.MuBps)
	}
}

// TestSingleTopologyKeyStability pins the byte-identity contract at the
// scenario level: the empty topology adds nothing to Key(), and
// canonicalization maps "single" (and bare one-link chains) to "".
func TestSingleTopologyKeyStability(t *testing.T) {
	base := runner.Scenario{RateMbps: 48, Scheme: spec.MustParse("cubic")}
	withTopo := base
	withTopo.Topology = "parking-lot"
	if base.Key() == withTopo.Key() {
		t.Fatal("topology not in Key()")
	}
	if strings.Contains(base.Key(), "topo=") {
		t.Fatalf("default key grew a topo component: %s", base.Key())
	}
	for _, alias := range []string{"single", "bn()"} {
		c, err := netem.CanonicalTopology(alias)
		if err != nil || c != "" {
			t.Errorf("CanonicalTopology(%q) = %q, %v", alias, c, err)
		}
	}
}
