package exp

import (
	"math"

	"nimbus/internal/core"
	"nimbus/internal/sim"
)

// Fig07 validates the asymmetric pulse of Fig. 7 numerically, for a
// 96 Mbit/s link at fp = 5 Hz: the positive half-sine lasts T/4 with
// amplitude µ/4, the negative half lasts 3T/4 with amplitude µ/12, and
// the two cancel over a period.
func Fig07(int64, bool) Report {
	mu := 96e6
	p := core.Pulse{Freq: 5, Amplitude: mu / 4}
	period := sim.FromSeconds(1 / p.Freq)
	n := 2000
	sum, peak, trough := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		v := p.Offset(sim.Time(float64(period) * float64(i) / float64(n)))
		sum += v
		if v > peak {
			peak = v
		}
		if v < trough {
			trough = v
		}
	}
	bdp := mu / 8 * 0.2 // 200 ms worth of bytes
	return Report{Panels: []Table{{
		Title: "Fig 7: asymmetric sinusoidal pulse shape (mu=96 Mbit/s, fp=5 Hz)",
		Cols: []Col{
			{"peak/mu", "", "positive peak / mu:  %.4f (paper: 0.2500)\n"},
			{"trough/mu", "", "negative peak / mu:  %.4f (paper: 0.0833)\n"},
			{"|mean|/mu", "", "|mean| / mu:         %.5f (paper: 0)\n"},
			{"burst/BDP", "", "burst / BDP(200ms):  %.4f (paper: ~0.04)\n"},
		},
		Rows: [][]any{{peak / mu, math.Abs(trough) / mu, math.Abs(sum/float64(n)) / mu, p.BurstBytes() / bdp}},
	}}}
}
