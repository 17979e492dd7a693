package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// bothAcc runs the cell under Nimbus and under Copa and returns the two
// accuracies.
func (c scoreCell) bothAcc(seed int64, dur sim.Time) (nimbus, copa float64) {
	return c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy(),
		c.run(spec.MustParse("copa"), seed, dur).acc.Accuracy()
}

// Fig14 reproduces Fig. 14, Nimbus's classification accuracy against
// Copa's. Left: purely inelastic cross traffic ("cbr" or "poisson")
// occupying a varying share of the link, where the correct answer is
// always "inelastic" (delay mode / Copa's default mode). Right: one
// elastic NewReno cross flow whose RTT is a multiple of the probe
// flow's, where the correct answer is always "elastic".
func Fig14(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	shares := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	ratios := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4}
	if quick {
		dur = 45 * sim.Second
		shares = []float64{0.3, 0.5, 0.7, 0.9}
		ratios = []float64{1, 2, 4}
	}
	kinds := []string{"cbr", "poisson"}
	left := grid([]int{len(shares), len(kinds)}, func(ix []int) []any {
		share, kind := shares[ix[0]], kinds[ix[1]]
		c := scoreCell{cross: []crossSpec{{kind: kind, rate: share * 96e6, rtt: 40 * sim.Millisecond}}}
		nimbus, copa := c.bothAcc(seed, dur)
		return []any{share * 100, kind, nimbus, copa}
	})
	right := mapCells(len(ratios), func(i int) []any {
		crossRTT := sim.Time(float64(50*sim.Millisecond) * ratios[i])
		c := scoreCell{cross: []crossSpec{{kind: "reno", label: "reno", rtt: crossRTT}}, elastic: true}
		nimbus, copa := c.bothAcc(seed, dur)
		return []any{ratios[i], nimbus, copa}
	})
	return fig14Report(left, right)
}

func fig14Report(left, right [][]any) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 14 (left): accuracy vs inelastic cross-traffic share",
			Cols: []Col{
				{"share", "%6s", "%5.0f%%"},
				{"kind", "%-8s", "%-8s"},
				{"nimbus", "%8s", "%8.2f"},
				{"copa", "%8s", "%8.2f"},
			},
			Rows: left,
		}, {
			Title: "Fig 14 (right): accuracy vs elastic cross-flow RTT ratio",
			Cols: []Col{
				{"ratio", "%6s", "%6.1f"},
				{"nimbus", "%8s", "%8.2f"},
				{"copa", "%8s", "%8.2f"},
			},
			Rows: right,
		}},
		Expect: "copa collapses above ~80% share and degrades with RTT ratio; nimbus stays high",
	}
}
