package exp

import (
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
)

// The mobile experiment family spends the time-varying link capability:
// schemes × the embedded capacity-trace corpus (cellular ramp/fade,
// coffee-shop Wi-Fi, outage-and-recover) with inelastic cross traffic,
// reporting throughput, delay, utilization, and how well Nimbus keeps its
// mode decision right while the capacity moves under it. It extends the
// paper's emulated-path methodology (§8.4) to the Mahimahi-style
// fluctuating links the paper evaluates on.

// MobileSchemes are the schemes the mobile family compares.
var MobileSchemes = spec.Specs("nimbus", "cubic", "bbr")

// MobileGrid is the declarative sweep behind `nimbus-bench -run mobile`.
func MobileGrid(seed int64, quick bool) runner.Grid {
	dur := 90.0
	if quick {
		dur = 24
	}
	return runner.Grid{
		Base: runner.Scenario{
			// Nominal rate sizes the buffer; the traces set the capacity.
			RateMbps: 48, RTTms: 50, BufferMs: 100,
			Cross: "poisson", CrossRateMbps: 4,
			DurationSec: dur, Seed: seed,
		},
		Schemes:    MobileSchemes,
		LinkTraces: netem.TraceNames(),
	}
}

// Mobile runs the sweep on the package worker pool.
func Mobile(seed int64, quick bool) Report {
	return mobileReport(RunSweep(MobileGrid(seed, quick), Workers, nil))
}

// mobileReport renders one row per (trace, scheme) cell.
func mobileReport(rs []runner.Result) Report {
	return Report{
		Panels: []Table{{
			Title: "Mobile: schemes over time-varying links (embedded trace corpus)",
			Cols: []Col{
				{"trace", "%-10s", "%-10s"},
				{"scheme", "%-8s", "%-8s"},
				{"Mbit/s", "%8s", "%8.2f"},
				{"qdelay p95", "%12s", "%9.1f ms"},
				{"util", "%6s", "%6.2f"},
				{"mode sw", "%8s", "%8.0f"},
				{"mode acc", "%9s", "%9.2f"},
			},
			Rows: sweepRows(rs,
				func(sc runner.Scenario) []any { return []any{sc.LinkTrace, sc.Scheme} },
				func(m map[string]float64) []any {
					// Mode telemetry is Nimbus's; other schemes print "-" twice.
					sw, acc := optional(m, "mode_switches"), any(nil)
					if sw != nil {
						acc = m["mode_accuracy"]
					}
					return []any{m["mean_mbps"], m["qdelay_p95_ms"], m["utilization"], sw, acc}
				}),
		}},
		Expect: "schemes track the trace's mean capacity; mode acc shows how often capacity swings masquerade as elastic cross traffic (the cross here is inelastic, so delay mode is correct)",
	}
}
