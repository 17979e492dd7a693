package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/sim"
)

// Fig05Result reproduces Fig. 5: the FFT of the ẑ series for elastic and
// inelastic cross traffic. Only elastic traffic shows a pronounced peak
// at fp = 5 Hz.
type Fig05Result struct {
	Elastic bool
	Freqs   []float64
	Mags    []float64 // Mbit/s
	PeakAt5 float64   // magnitude at fp, Mbit/s
	Eta     float64
}

// RunFig05 reuses the Fig. 4 scenarios and reads the detector's spectrum.
func RunFig05(elastic bool, seed int64) Fig05Result {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	s := MustScheme("nimbus", r.MuBps)
	r.AddFlow(s, 50*sim.Millisecond, 0)
	if elastic {
		r.cubicCross(1, 50*sim.Millisecond, 0, 0)
	} else {
		r.crossCBR("", 50*sim.Millisecond, 48e6, 0)
	}
	r.Sch.RunUntil(40 * sim.Second)

	det := s.Nimbus.Detector()
	spec := det.Spectrum()
	res := Fig05Result{Elastic: elastic, Eta: det.Elasticity(5)}
	for k, m := range spec.Mag {
		f := float64(k) * spec.Resolution
		if f > 50 {
			break
		}
		res.Freqs = append(res.Freqs, f)
		res.Mags = append(res.Mags, m/1e6)
	}
	res.PeakAt5 = spec.PeakAround(5, spec.Resolution) / 1e6
	return res
}

// Fig05 runs both panels.
func Fig05(seed int64) []Fig05Result {
	return mapCells(2, func(i int) Fig05Result {
		return RunFig05(i == 0, seed)
	})
}

// FormatFig05 renders the result.
func FormatFig05(rows []Fig05Result) string {
	var b strings.Builder
	b.WriteString("Fig 5: FFT of cross-traffic rate estimate\n")
	fmt.Fprintf(&b, "%-10s %14s %8s\n", "cross", "|FFT| @5Hz Mbps", "eta")
	for _, r := range rows {
		name := "inelastic"
		if r.Elastic {
			name = "elastic"
		}
		fmt.Fprintf(&b, "%-10s %14.2f %8.2f\n", name, r.PeakAt5, r.Eta)
	}
	b.WriteString("expected shape: pronounced 5 Hz peak (eta >= 2) only for elastic cross traffic\n")
	return b.String()
}
