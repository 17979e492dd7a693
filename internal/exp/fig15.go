package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig15 reproduces Fig. 15: Nimbus's classification accuracy as the
// cross-traffic RTT goes from 0.2x to 4x the flow's RTT, for one NewReno
// flow ("elastic"), Poisson traffic at 40% of the link ("inelastic"),
// and one NewReno flow plus 25% Poisson ("mix").
func Fig15(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	ratios := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0}
	if quick {
		dur = 45 * sim.Second
		ratios = []float64{0.2, 1.0, 4.0}
	}
	mixes := []string{"elastic", "mix", "inelastic"}
	return Report{
		Panels: []Table{{
			Title: "Fig 15: Nimbus accuracy vs cross-traffic RTT ratio",
			Cols: []Col{
				{"mix", "%-10s", "%-10s"},
				{"ratio", "%6s", "%6.1f"},
				{"accuracy", "%9s", "%9.2f"},
			},
			Rows: grid([]int{len(mixes), len(ratios)}, func(ix []int) []any {
				mix, ratio := mixes[ix[0]], ratios[ix[1]]
				crossRTT := sim.Time(float64(50*sim.Millisecond) * ratio)
				var c scoreCell
				mu := 96e6 // the standard rig's link rate
				c.cross, c.elastic = mixCross(mix, crossRTT, []string{"reno"}, []string{"reno"}, 0.4*mu, 0.25*mu)
				return []any{mix, ratio, c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy()}
			}),
		}},
		Expect: "~98% for pure elastic/inelastic, >=80% for mixes, flat across ratios",
	}
}
