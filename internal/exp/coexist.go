package exp

import (
	"fmt"

	"nimbus/internal/runner"
)

// The coexist experiment family is what the FlowSpec redesign buys: the
// paper's core claim is about Nimbus coexisting with arbitrary mixes of
// elastic and inelastic competitors, and this family sweeps exactly
// those mixes — heterogeneous scheme pairings, unequal flow counts, late
// joiners — across constant and time-varying bottlenecks, reporting
// per-flow throughput and two fairness scores (Jain's index and the
// Jensen-Shannon divergence from the equal split) for every cell. None
// of these scenarios existed as figures in the paper; all of them are
// three lines of FlowMix syntax now.

// CoexistMixes are the flow mixes the family sweeps.
var CoexistMixes = []string{
	"nimbus+cubic",        // the paper's central pairing
	"nimbus+bbr",          // model-based competitor
	"nimbus+copa",         // mode-switching competitor
	"nimbus*2+cubic",      // Nimbus majority vs one elastic flow
	"nimbus+cubic*2",      // outnumbered by loss-based flows
	"nimbus+cubic@20",     // elastic late joiner
	"nimbus+vegas+cubic",  // three-way: delay, loss, and Nimbus
	"nimbus*2+cubic@5:25", // finite elastic intruder
}

// CoexistGrid is the declarative sweep behind `nimbus-bench -run coexist`.
func CoexistGrid(seed int64, quick bool) runner.Grid {
	dur := 60.0
	if quick {
		dur = 30
	}
	return runner.Grid{
		Base: runner.Scenario{
			RateMbps: 96, RTTms: 50, BufferMs: 100,
			DurationSec: dur, Seed: seed,
		},
		FlowMixes:  CoexistMixes,
		LinkTraces: []string{"", "cell-ramp"},
	}
}

// Coexist runs the sweep on the package worker pool.
func Coexist(seed int64, quick bool) Report {
	return coexistReport(RunSweep(CoexistGrid(seed, quick), Workers, nil))
}

// coexistReport renders one row per (mix, link) cell with per-flow
// throughput and the fairness of the split.
func coexistReport(rs []runner.Result) Report {
	return Report{
		Panels: []Table{{
			Title: "Coexist: heterogeneous flow mixes (per-flow Mbit/s, fairness)",
			Cols: []Col{
				{"mix", "%-22s", "%-22s"},
				{"link", "%-10s", "%-10s"},
				{"Mbit/s", "%8s", "%8.2f"},
				{"jain", "%6s", "%6.3f"},
				{"jsd", "%6s", "%6.3f"},
				{"qdelay", "%9s", "%6.1f ms"},
				{"per-flow Mbit/s", " %s", " [%s]"},
			},
			Rows: sweepRows(rs,
				func(sc runner.Scenario) []any {
					if sc.LinkTrace == "" {
						return []any{sc.FlowMix, "constant"}
					}
					return []any{sc.FlowMix, sc.LinkTrace}
				},
				func(m map[string]float64) []any {
					var flows mbpsList
					for i := 0; ; i++ {
						v, ok := m[fmt.Sprintf("flow%02d_mbps", i)]
						if !ok {
							break
						}
						flows = append(flows, v)
					}
					return []any{m["mean_mbps"], m["jain"], m["jsd_uniform"], m["qdelay_p95_ms"], flows}
				}),
		}},
		Expect: "nimbus holds its share against elastic mixes (jain near 1 for like-for-like splits); late joiners converge; jsd exposes starvation jain smooths over",
	}
}
