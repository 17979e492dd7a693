package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// wrongModeFrac is the scored fraction of time in the wrong mode, 0 for
// schemes without modes.
func (res *scoreResult) wrongModeFrac() float64 {
	if res.acc == nil {
		return 0
	}
	return 1 - res.acc.Accuracy()
}

// dynamicsGrid is the 2x2 grid of Figs. 23 and 24: Copa and Nimbus at two
// values of x, which the cell turns into cross traffic and a row.
func dynamicsGrid(quick bool, xs []float64, cell func(scheme string, x float64, dur sim.Time) []any) [][]any {
	dur := 60 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	schemes := []string{"copa", "nimbus"}
	return grid([]int{len(xs), len(schemes)}, func(ix []int) []any {
		return cell(schemes[ix[1]], xs[ix[0]], dur)
	})
}

// Fig23 reproduces App. D.1: Copa vs Nimbus against CBR cross traffic at
// a low (25%) and a high (83%) share of a 96 Mbit/s link. Copa
// misclassifies the high-share case as buffer-filling and keeps delays
// high; Nimbus stays in delay mode. The truth is inelastic, so any time
// in competitive mode is wrong-mode time.
func Fig23(seed int64, quick bool) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 23 (App D.1): CBR cross traffic, 96 Mbit/s, 2 BDP",
			Cols: []Col{
				{"scheme", "%-8s", "%-8s"},
				{"CBR", "%6s", "%4.0fM"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"delay ms", "%10s", "%10.1f"},
				{"wrong-mode", "%12s", "%12.2f"},
			},
			Rows: dynamicsGrid(quick, []float64{24, 80}, func(scheme string, cbrMbps float64, dur sim.Time) []any {
				c := scoreCell{cross: []crossSpec{{kind: "cbr", rate: cbrMbps * 1e6, rtt: 40 * sim.Millisecond}}}
				res := c.run(spec.MustParse(scheme), seed, dur)
				probe := res.Flows[0].Probe
				delay, _ := probe.Delay.MeanQuantiles()
				return []any{scheme, cbrMbps, probe.MeanMbps(5*sim.Second, dur), delay, res.wrongModeFrac()}
			}),
		}},
		Expect: "at 80M copa sticks in competitive mode (high delay); nimbus correct at both",
	}
}

// Fig24 reproduces App. D.2: Copa vs Nimbus against an elastic NewReno
// flow with equal or 4x RTT. Copa misses the slow-growing high-RTT flow
// and underutilizes; Nimbus classifies it elastic (the truth).
func Fig24(seed int64, quick bool) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 24 (App D.2): one elastic NewReno cross flow, RTT ratio 1x / 4x",
			Cols: []Col{
				{"scheme", "%-8s", "%-8s"},
				{"ratio", "%6s", "%6.1f"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"wrong-mode", "%12s", "%12.2f"},
			},
			Rows: dynamicsGrid(quick, []float64{1, 4}, func(scheme string, ratio float64, dur sim.Time) []any {
				crossRTT := sim.Time(float64(50*sim.Millisecond) * ratio)
				c := scoreCell{cross: []crossSpec{{kind: "reno", label: "reno", rtt: crossRTT}}, elastic: true}
				res := c.run(spec.MustParse(scheme), seed, dur)
				return []any{scheme, ratio, res.Flows[0].Probe.MeanMbps(5*sim.Second, dur), res.wrongModeFrac()}
			}),
		}},
		Expect: "at 4x copa misclassifies (low share); nimbus stays competitive and keeps its share",
	}
}
