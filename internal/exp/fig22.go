package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig22 reproduces App. C, Fig. 22: Nimbus's and Cubic's throughput
// against one BBR flow at buffer sizes 0.5-4 BDP. The claim: Nimbus does
// no worse than Cubic against BBR regardless of buffer depth, even
// though the detector classifies BBR differently by buffer size
// (inelastic when shallow, elastic when deep).
func Fig22(seed int64, quick bool) Report {
	if quick {
		return fig22([]float64{0.5, 2}, seed, 45*sim.Second)
	}
	return fig22([]float64{0.5, 1, 2, 4}, seed, 120*sim.Second)
}

func fig22(bufs []float64, seed int64, dur sim.Time) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 22 (App C): competing with one BBR flow on 96 Mbit/s",
			Cols: []Col{
				{"buffer BDP", "%10s", "%10.1f"},
				{"nimbus Mbps", "%12s", "%12.1f"},
				{"cubic Mbps", "%12s", "%12.1f"},
				// How the detector classified BBR.
				{"nimbus comp. frac", "%18s", "%18.2f"},
			},
			Rows: mapCells(len(bufs), func(i int) []any {
				c := scoreCell{
					net:     NetConfig{Buffer: sim.Time(bufs[i] * float64(50*sim.Millisecond))},
					cross:   []crossSpec{{kind: "bbr", label: "bbr"}},
					elastic: true, // so accuracy == competitive fraction
				}
				nim := c.run(spec.MustParse("nimbus"), seed, dur)
				cub := c.run(spec.MustParse("cubic"), seed, dur)
				return []any{bufs[i], nim.Flows[0].Probe.MeanMbps(5*sim.Second, dur), cub.Flows[0].Probe.MeanMbps(5*sim.Second, dur), nim.acc.Accuracy()}
			}),
		}},
		Expect: "nimbus ~ cubic at every buffer; BBR classified elastic only with deep buffers",
	}
}
