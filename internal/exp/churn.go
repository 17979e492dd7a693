package exp

import (
	"fmt"
	"strings"

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
func Churn(seed int64, quick bool) []runner.Result {
	return RunSweep(ChurnGrid(seed, quick), Workers, nil)
}

// FormatChurn renders one row per (scheme, workload) cell: the
// long-lived flow's throughput, the session population's completion
// times and fairness, and — for Nimbus — detection accuracy against the
// live ground truth.
func FormatChurn(rs []runner.Result) string {
	var b strings.Builder
	b.WriteString("Churn: schemes vs session-arrival workloads (flow churn)\n")
	fmt.Fprintf(&b, "%-8s %-22s %7s %7s %6s %9s %9s %6s %7s %7s\n",
		"scheme", "workload", "Mbit/s", "flows", "active", "fct p50", "fct p95", "jain", "el.frac", "acc")
	for _, r := range rs {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-8s %-22s ERROR: %s\n", r.Scenario.Scheme, r.Scenario.Churn, r.Err)
			continue
		}
		acc := "-"
		if v, ok := r.Metrics["mode_accuracy"]; ok {
			acc = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "%-8s %-22s %7.2f %7.0f %6.1f %6.0f ms %6.0f ms %6.3f %7.2f %7s\n",
			r.Scenario.Scheme, r.Scenario.Churn,
			r.Metrics["mean_mbps"], r.Metrics["churn_completed"], r.Metrics["churn_mean_active"],
			r.Metrics["churn_fct_p50_ms"], r.Metrics["churn_fct_p95_ms"],
			r.Metrics["churn_jain"], r.Metrics["churn_elastic_frac"], acc)
	}
	b.WriteString("expected shape: session FCTs under nimbus stay at or below cubic's (pulsing does not starve the mice); detection accuracy is highest for mice-dominated churn (web) and degrades as elephant churn deepens — rapidly arriving elastic flows are the detector's hardest case\n")
	return b.String()
}
