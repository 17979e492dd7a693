package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig25Row is one cell of the App. E multi-factor sweep: detection
// accuracy for a given pulse size, Nimbus link share, link rate, and
// cross-traffic mix.
type Fig25Row struct {
	PulseFrac float64
	Share     float64 // Nimbus's fair share of the link
	RateMbps  float64
	Mix       string
	Accuracy  float64
}

// RunFig25Cell runs one cell. The share is implemented the way the paper
// does: cross traffic occupies (1 - share) of the link; for the elastic
// mixes the elastic flows are NewReno, for inelastic Poisson.
func RunFig25Cell(pulse, share, rateMbps float64, mix string, seed int64, dur sim.Time) Fig25Row {
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
	return Fig25Row{PulseFrac: pulse, Share: share, RateMbps: rateMbps, Mix: mix, Accuracy: res.acc.Accuracy()}
}

// Fig25 runs the sweep. The full grid matches App. E; quick mode runs a
// reduced but representative grid.
func Fig25(seed int64, quick bool) []Fig25Row {
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
	type cell struct {
		pulse, share, rate float64
		mix                string
	}
	var cells []cell
	for _, mix := range mixes {
		for _, rate := range rates {
			for _, share := range shares {
				for _, p := range pulses {
					cells = append(cells, cell{p, share, rate, mix})
				}
			}
		}
	}
	return mapCells(len(cells), func(i int) Fig25Row {
		c := cells[i]
		return RunFig25Cell(c.pulse, c.share, c.rate, c.mix, seed, dur)
	})
}

// FormatFig25 renders the sweep grouped by mix.
func FormatFig25(rows []Fig25Row) string {
	var b strings.Builder
	b.WriteString("Fig 25 (App E): accuracy vs pulse size x share x link rate\n")
	fmt.Fprintf(&b, "%-10s %6s %6s %6s %9s\n", "mix", "rate", "share", "pulse", "accuracy")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6.0f %6.2f %6.3f %9.2f\n", r.Mix, r.RateMbps, r.Share, r.PulseFrac, r.Accuracy)
		sum += r.Accuracy
	}
	fmt.Fprintf(&b, "mean accuracy over grid: %.2f (paper: >0.90)\n", sum/float64(len(rows)))
	b.WriteString("expected shape: accuracy rises with pulse size and link rate, falls slightly with nimbus share\n")
	return b.String()
}
