package exp

import (
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
)

// The churn experiment family asks the paper's question at Internet
// scale: the figures score elasticity detection against one or two
// long-lived cross flows, but a production bottleneck serves sessions —
// thousands of short flows arriving and departing, flipping the link
// between "elastic traffic present" and "not" many times a minute. Here
// the scheme under test shares the bottleneck with an
// internal/workload session process, the detector's mode decisions are
// scored against the workload's exact elastic ground truth, and the
// session population's completion times and fairness expose what the
// pulsing scheme costs the short flows around it.

// ChurnWorkloads are the session workloads the family sweeps.
var ChurnWorkloads = []string{
	"bulk(load=24)",          // heavy-tailed singles, moderate load
	"bulk(load=48)",          // same tail at half the bottleneck
	"web(load=24)",           // multi-object page sessions (mice)
	"video(load=24)",         // chunked inelastic-on-average streams
	"trace(src=flash-crowd)", // replayed arrival burst
}

// ChurnSchemes are the schemes under test.
var ChurnSchemes = spec.Specs("nimbus", "cubic", "copa", "bbr")

// ChurnGrid is the declarative sweep behind `nimbus-bench -run churn`:
// schemes x session workloads on the standard bottleneck.
func ChurnGrid(seed int64, quick bool) runner.Grid {
	dur := 60.0
	workloads := ChurnWorkloads
	if quick {
		dur = 30
		workloads = workloads[:3]
	}
	return runner.Grid{
		Base: runner.Scenario{
			RateMbps: 96, RTTms: 50, BufferMs: 100,
			DurationSec: dur, Seed: seed,
		},
		Schemes: ChurnSchemes,
		Churns:  workloads,
	}
}

// Churn runs the sweep on the package worker pool.
func Churn(seed int64, quick bool) Report {
	return churnReport(RunSweep(ChurnGrid(seed, quick), Workers, nil))
}

// churnReport renders one row per (scheme, workload) cell: the
// long-lived flow's throughput, the session population's completion
// times and fairness, and — for Nimbus — detection accuracy against the
// live ground truth.
func churnReport(rs []runner.Result) Report {
	return Report{
		Panels: []Table{{
			Title: "Churn: schemes vs session-arrival workloads (flow churn)",
			Cols: []Col{
				{"scheme", "%-8s", "%-8s"},
				{"workload", "%-22s", "%-22s"},
				{"Mbit/s", "%7s", "%7.2f"},
				{"flows", "%7s", "%7.0f"},
				{"active", "%6s", "%6.1f"},
				{"fct p50", "%9s", "%6.0f ms"},
				{"fct p95", "%9s", "%6.0f ms"},
				{"jain", "%6s", "%6.3f"},
				{"el.frac", "%7s", "%7.2f"},
				{"acc", "%7s", "%7.3f"},
			},
			Rows: sweepRows(rs,
				func(sc runner.Scenario) []any { return []any{sc.Scheme, sc.Churn} },
				func(m map[string]float64) []any {
					return []any{
						m["mean_mbps"], m["churn_completed"], m["churn_mean_active"],
						m["churn_fct_p50_ms"], m["churn_fct_p95_ms"],
						m["churn_jain"], m["churn_elastic_frac"], optional(m, "mode_accuracy"),
					}
				}),
		}},
		Expect: "session FCTs under nimbus stay at or below cubic's (pulsing does not starve the mice); detection accuracy is highest for mice-dominated churn (web) and degrades as elephant churn deepens — rapidly arriving elastic flows are the detector's hardest case",
	}
}
