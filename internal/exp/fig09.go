package exp

import (
	"nimbus/internal/metrics"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/workload"
)

// runTrace runs one scheme against the heavy-tailed WAN trace workload
// at an offered load (a fraction of the link) on the standard rig: the
// scenario of Figs. 9, 10, 13 and 21. It returns the scheme's probe and
// the cross flows' completion times.
func runTrace(sp spec.Spec, seed int64, dur sim.Time, loadFrac float64) (*FlowProbe, []metrics.FCTRecord) {
	b := scoreCell{
		net:   NetConfig{Seed: seed},
		flows: []FlowSpec{{Scheme: sp}},
		cross: []crossSpec{{kind: "trace", rate: loadFrac * 96e6}},
	}.mustBuild()
	probe := b.Flows[0].Probe
	probe.RecordRTT()
	var fcts []metrics.FCTRecord
	b.cross[0].(*workload.Generator).OnComplete = func(size int, fct sim.Time) {
		fcts = append(fcts, metrics.FCTRecord{SizeBytes: size, FCT: fct})
	}
	b.Rig.Sch.RunUntil(dur)
	return probe, fcts
}

// traceHorizon is the horizon of Figs. 9 and 10.
func traceHorizon(quick bool) sim.Time {
	if quick {
		return 60 * sim.Second
	}
	return 120 * sim.Second
}

// Fig09 reproduces Fig. 9: six schemes against the WAN trace workload at
// 50% load, as mean rate and per-packet RTT quantiles.
func Fig09(seed int64, quick bool) Report {
	dur := traceHorizon(quick)
	return Report{
		Panels: []Table{{
			Title: "Fig 9: WAN (heavy-tailed trace) cross traffic at 50% load, 96 Mbit/s",
			Cols: []Col{
				{"scheme", "%-10s", "%-10s"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"median RTT", "%12s", "%9.0f ms"},
				{"p95 RTT", "%10s", "%7.0f ms"},
			},
			Rows: mapCells(len(SchemeNames), func(i int) []any {
				probe, _ := runTrace(spec.MustParse(SchemeNames[i]), seed, dur, 0.5)
				_, rtt := probe.RTTms.MeanQuantiles(0.5, 0.95)
				return []any{SchemeNames[i], probe.MeanMbps(5*sim.Second, dur), rtt[0], rtt[1]}
			}),
		}},
		Expect: "nimbus ~ cubic/bbr rate with much lower median RTT; vegas/copa lower rate",
	}
}

// Fig10 reproduces Fig. 10 from two Fig. 9 runs: Copa's throughput
// collapses during elastic periods, which shows as a low 20th percentile
// of its 1 s rates.
func Fig10(seed int64, quick bool) Report {
	dur := traceHorizon(quick)
	p20 := mapCells(2, func(i int) any {
		probe, _ := runTrace(spec.MustParse([]string{"nimbus", "copa"}[i]), seed, dur, 0.5)
		rates := probe.Tput.SeriesMbps()
		if len(rates) > 5 {
			rates = rates[5:] // warmup
		}
		return stats.Percentile(rates, 0.2)
	})
	return Report{
		Panels: []Table{{
			Title: "Fig 10: Copa vs Nimbus against trace cross traffic",
			Cols: []Col{
				{"nimbus p20 Mbit/s", "", "p20 of 1s throughput: nimbus %.1f Mbit/s"},
				{"copa p20 Mbit/s", "", ", copa %.1f Mbit/s\n"},
			},
			Rows: [][]any{p20},
		}},
		Expect: "copa's low-percentile throughput below nimbus (drops vs elastic flows)",
	}
}
