package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig26 reproduces App. F: the η distribution against a PCC-Vivace cross
// flow at two pulse frequencies. At fp=5 Hz Vivace is too slow to follow
// the pulses (classified inelastic); at fp=2 Hz the longer pulses are
// slow enough for Vivace's monitor intervals to track (classified
// elastic).
func Fig26(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	if quick {
		dur = 50 * sim.Second
	}
	freqs := []float64{5, 2}
	return Report{
		Panels: []Table{{
			Title: "Fig 26 (App F): detecting PCC-Vivace (rate-based, not ACK-clocked)",
			Cols: []Col{
				{"fp Hz", "%6s", "%6.0f"},
				{"median eta", "%12s", "%12.2f"},
				{"frac elastic", "%14s", "%14.2f"},
			},
			Rows: mapCells(len(freqs), func(i int) []any {
				c := scoreCell{cross: []crossSpec{{kind: "vivace", label: "vivace"}}}
				median, elastic := c.run(spec.MustParse("nimbus").With("fp", spec.Num(freqs[i])), seed, dur).etaStats()
				return []any{freqs[i], median, elastic}
			}),
		}},
		Expect: "mostly inelastic at 5 Hz; elastic at 2 Hz",
	}
}
