package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig15Row is one point of Fig. 15: Nimbus's classification accuracy as
// the cross-traffic RTT varies from 0.2x to 4x the flow's RTT, for
// elastic, inelastic, and 50/50 mixed cross traffic.
type Fig15Row struct {
	RTTRatio float64
	Mix      string // "elastic", "inelastic", "mix"
	Accuracy float64
}

// RunFig15Point runs one (ratio, mix) cell: one NewReno flow and/or
// Poisson traffic (40% of the link alone, 25% in the mix).
func RunFig15Point(ratio float64, mix string, seed int64, dur sim.Time) Fig15Row {
	crossRTT := sim.Time(float64(50*sim.Millisecond) * ratio)
	var c scoreCell
	mu := 96e6 // the standard rig's link rate
	c.cross, c.elastic = mixCross(mix, crossRTT, []string{"reno"}, []string{"reno"}, 0.4*mu, 0.25*mu)
	return Fig15Row{RTTRatio: ratio, Mix: mix, Accuracy: c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy()}
}

// Fig15 runs the sweep.
func Fig15(seed int64, quick bool) []Fig15Row {
	dur := 120 * sim.Second
	ratios := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0}
	if quick {
		dur = 45 * sim.Second
		ratios = []float64{0.2, 1.0, 4.0}
	}
	type cell struct {
		ratio float64
		mix   string
	}
	var cells []cell
	for _, mix := range []string{"elastic", "mix", "inelastic"} {
		for _, rt := range ratios {
			cells = append(cells, cell{rt, mix})
		}
	}
	return mapCells(len(cells), func(i int) Fig15Row {
		return RunFig15Point(cells[i].ratio, cells[i].mix, seed, dur)
	})
}

// FormatFig15 renders the sweep.
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	b.WriteString("Fig 15: Nimbus accuracy vs cross-traffic RTT ratio\n")
	fmt.Fprintf(&b, "%-10s %6s %9s\n", "mix", "ratio", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6.1f %9.2f\n", r.Mix, r.RTTRatio, r.Accuracy)
	}
	b.WriteString("expected shape: ~98% for pure elastic/inelastic, >=80% for mixes, flat across ratios\n")
	return b.String()
}
