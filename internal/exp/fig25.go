package exp

import (
	"fmt"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// meanPanel is the closing line of an accuracy grid: the mean of the
// table's "accuracy" column, printed with the given phrase.
func meanPanel(t Table, phrase string) Table {
	var sum float64
	for i := range t.Rows {
		sum += t.Num(i, "accuracy")
	}
	return Table{
		Cols: []Col{{"mean accuracy", "", phrase}},
		Rows: [][]any{{sum / float64(len(t.Rows))}},
	}
}

// Fig25 runs the App. E multi-factor sweep: detection accuracy by pulse
// size, Nimbus's fair share of the link, link rate and cross-traffic
// mix. The full grid matches App. E; quick mode runs a reduced but
// representative grid.
func Fig25(seed int64, quick bool) Report {
	pulses := []float64{0.0625, 0.125, 0.25, 0.375, 0.5}
	shares := []float64{0.125, 0.25, 0.5, 0.75}
	rates := []float64{96, 192, 384}
	mixes := []string{"elastic", "inelastic", "mix"}
	dur := 60 * sim.Second
	if quick {
		pulses = []float64{0.125, 0.25}
		shares = []float64{0.25, 0.5}
		rates = []float64{96}
		dur = 30 * sim.Second
	}
	t := Table{
		Title: "Fig 25 (App E): accuracy vs pulse size x share x link rate",
		Cols: []Col{
			{"mix", "%-10s", "%-10s"},
			{"rate", "%6s", "%6.0f"},
			{"share", "%6s", "%6.2f"},
			{"pulse", "%6s", "%6.3f"},
			{"accuracy", "%9s", "%9.2f"},
		},
		Rows: grid([]int{len(mixes), len(rates), len(shares), len(pulses)}, func(ix []int) []any {
			mix, rateMbps, share, pulse := mixes[ix[0]], rates[ix[1]], shares[ix[2]], pulses[ix[3]]
			// The share is implemented the way the paper does: cross
			// traffic occupies (1 - share) of the link; the elastic flows
			// are NewReno, the inelastic traffic Poisson.
			c := scoreCell{net: NetConfig{RateMbps: rateMbps}}
			// Enough NewReno flows to claim their share: one per ~24 Mbit/s.
			renos := func(bps float64) []string {
				labels := make([]string, int(bps/24e6)+1)
				for i := range labels {
					labels[i] = fmt.Sprintf("reno%d", i)
				}
				return labels
			}
			crossRate := (1 - share) * (rateMbps * 1e6)
			c.cross, c.elastic = mixCross(mix, 0, renos(crossRate), renos(crossRate/2), crossRate, crossRate/2)
			res := c.run(spec.MustParse("nimbus").With("pulse", spec.Num(pulse)), seed, dur)
			return []any{mix, rateMbps, share, pulse, res.acc.Accuracy()}
		}),
	}
	return Report{
		Panels: []Table{t, meanPanel(t, "mean accuracy over grid: %.2f (paper: >0.90)\n")},
		Expect: "accuracy rises with pulse size and link rate, falls slightly with nimbus share",
	}
}
