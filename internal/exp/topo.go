package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// The topo experiment family is what the topology subsystem buys: the
// paper evaluates elasticity detection on a single bottleneck with an
// ideal reverse path, and this family probes the two classic deployment
// conditions that shape breaks — multi-bottleneck parking-lot contention
// (does a scheme crossing several congested hops hold a fair share
// against single-hop competitors?) and a congested ACK path (does the
// forward direction survive ACK thinning and loss?) — for Nimbus against
// the cubic/copa/bbr baselines. Neither scenario exists as a figure in
// the paper; both are a topology preset plus routed flow specs here.

// TopoSchemes are the schemes under test.
var TopoSchemes = []string{"nimbus", "cubic", "copa", "bbr"}

// hopList is a cell holding each hop's utilization and mean queueing
// delay (ms), in topology order.
type hopList [][2]float64

func (l hopList) String() string {
	parts := make([]string, len(l))
	for i, h := range l {
		parts[i] = fmt.Sprintf("%.2f/%.1f", h[0], h[1])
	}
	return strings.Join(parts, ", ")
}

func hopsOf(r *Rig) hopList {
	var hops hopList
	for _, l := range r.Net.Links() {
		hops = append(hops, [2]float64{l.Utilization(), l.MeanQueueDelay().Millis()})
	}
	return hops
}

var topoCols = []Col{
	{"scenario", "%-14s", "%-14s"},
	{"scheme", "%-8s", "%-8s"},
	// The scheme under test's throughput on the full route.
	{"Mbit/s", "%8s", "%8.2f"},
	// Parking-lot only: the mean throughput of the per-hop cubic flows,
	// and Jain's index of the long flow against them.
	{"crossMbps", "%10s", "%10.2f"},
	{"jain", "%6s", "%6.3f"},
	// Rev-congested only: ACK packets lost on the reverse path (the
	// reverse link's own drop counter would also include the CBR cross
	// traffic's losses).
	{"ackDrops", "%9s", "%9d"},
	{"per-hop util / qdelay(ms)", " %s", " [%s]"},
}

// topoParkingLot runs one scheme over the parking-lot preset: the scheme
// under test crosses all three equal-rate hops while one cubic flow
// contends at each hop.
func topoParkingLot(schemeName string, seed int64, dur sim.Time) []any {
	cubic := spec.MustParse("cubic")
	b := scoreCell{
		net: NetConfig{RateMbps: 48, Seed: sim.DeriveSeed(seed, "topo/parking-lot/"+schemeName), Topology: "parking-lot"},
		flows: []FlowSpec{
			{Scheme: spec.MustParse(schemeName)},
			{Scheme: cubic, Route: "hop1"}, {Scheme: cubic, Route: "hop2"}, {Scheme: cubic, Route: "hop3"},
		},
	}.mustBuild()
	b.Rig.Sch.RunUntil(dur)
	st := FlowStats(b.Flows, dur)
	var cross float64
	for _, v := range st.PerFlowMbps[1:] {
		cross += v
	}
	cross /= float64(len(st.PerFlowMbps) - 1)
	return []any{"parking-lot", schemeName, st.PerFlowMbps[0], cross, st.Jain, nil, hopsOf(b.Rig)}
}

// topoRevCongested runs one scheme over the rev-congested preset: the
// scheme's ACKs share a narrow reverse link (5% of nominal) with a CBR
// stream sized to over-subscribe it, so ACKs queue and drop.
func topoRevCongested(schemeName string, seed int64, dur sim.Time) []any {
	b := scoreCell{
		net:   NetConfig{RateMbps: 48, Seed: sim.DeriveSeed(seed, "topo/rev-congested/"+schemeName), Topology: "rev-congested"},
		flows: []FlowSpec{{Scheme: spec.MustParse(schemeName)}},
		// The reverse link carries ~2 Mbit/s of ACKs at full forward
		// throughput against 2.4 Mbit/s capacity; 1.5 Mbit/s of CBR pushes
		// it into overload.
		cross: []crossSpec{{kind: "cbr", route: "rev-cross", rate: 1.5e6}},
	}.mustBuild()
	r := b.Rig
	r.Sch.RunUntil(dur)
	return []any{"rev-congested", schemeName, b.Flows[0].Probe.MeanMbps(0, dur), nil, nil, r.Net.AckDrops, hopsOf(r)}
}

// Topo runs the family: every scheme through both scenarios, fanned out
// on the package worker pool.
func Topo(seed int64, quick bool) Report {
	dur := 60 * sim.Second
	if quick {
		dur = 20 * sim.Second
	}
	scenarios := []func(string, int64, sim.Time) []any{topoParkingLot, topoRevCongested}
	return Report{
		Panels: []Table{{
			Title: "Topo: multi-hop topologies (parking-lot fairness; congested ACK path)",
			Cols:  topoCols,
			Rows: grid([]int{len(scenarios), len(TopoSchemes)}, func(ix []int) []any {
				return scenarios[ix[0]](TopoSchemes[ix[1]], seed, dur)
			}),
		}},
		Expect: "parking-lot long flows get less than single-hop competitors (the classic multi-bottleneck penalty); on rev-congested, loss- and model-based schemes ride out ACK thinning while delay-based ones see reverse queueing as path delay",
	}
}
