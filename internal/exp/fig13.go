package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig13 reproduces Fig. 13: Nimbus at pulse sizes {0.125, 0.25} against
// the trace workload at offered loads {50%, 90%}, with Cubic and Vegas
// baselines.
func Fig13(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	if quick {
		dur = 50 * sim.Second
	}
	loads := []float64{0.5, 0.9}
	schemes := []struct{ name, spec string }{
		{"nimbus0.125", "nimbus(pulse=0.125)"},
		{"nimbus0.25", "nimbus(pulse=0.25)"},
		{"cubic", "cubic"},
		{"vegas", "vegas"},
	}
	return Report{
		Panels: []Table{{
			Title: "Fig 13: cross-traffic load and pulse size",
			Cols: []Col{
				{"scheme", "%-12s", "%-12s"},
				{"load", "%6s", "%5.0f%%"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"median RTT", "%12s", "%9.0f ms"},
			},
			Rows: grid([]int{len(loads), len(schemes)}, func(ix []int) []any {
				load, s := loads[ix[0]], schemes[ix[1]]
				probe, _ := runTrace(spec.MustParse(s.spec), seed, dur, load)
				_, rtt := probe.RTTms.MeanQuantiles(0.5)
				return []any{s.name, load * 100, probe.MeanMbps(5*sim.Second, dur), rtt[0]}
			}),
		}},
		Expect: "nimbus ~ cubic throughput at both loads; delay benefit largest at 50% load; larger pulse behaves better at 50%",
	}
}
