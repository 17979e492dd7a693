package exp

import "nimbus/internal/sim"

// Fig05 reproduces Fig. 5: the FFT of the ẑ series on the Fig. 4
// scenarios, read from the detector's spectrum at 40 s. Only elastic
// cross traffic shows a pronounced peak at fp = 5 Hz.
func Fig05(seed int64, _ bool) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 5: FFT of cross-traffic rate estimate",
			Cols: []Col{
				{"cross", "%-10s", "%-10s"},
				{"|FFT| @5Hz Mbps", "%14s", "%14.2f"},
				{"eta", "%8s", "%8.2f"},
			},
			Rows: mapCells(2, func(i int) []any {
				b, name := pulseRig(i == 0, seed)
				b.Rig.Sch.RunUntil(40 * sim.Second)
				det := b.Flows[0].Scheme.Nimbus.Detector()
				spec := det.Spectrum()
				return []any{name, spec.PeakAround(5, spec.Resolution) / 1e6, det.Elasticity(5)}
			}),
		}},
		Expect: "pronounced 5 Hz peak (eta >= 2) only for elastic cross traffic",
	}
}
