package exp

import (
	"fmt"
	"math"
	"strings"

	"nimbus/internal/core"
	"nimbus/internal/metrics"
	"nimbus/internal/sim"
)

// Fig04Result reproduces Fig. 4: the sender's pulsed rate S(t) and the
// estimated cross-traffic rate ẑ(t) over a 3-second zoom window, against
// elastic and inelastic cross traffic. Elastic ẑ is anti-correlated with
// the pulses; inelastic ẑ is flat.
type Fig04Result struct {
	Elastic bool
	S, Z    metrics.Series
	// ZOscillation is the peak-to-peak amplitude of ẑ within the window
	// relative to its mean — the quantitative "reaction" signal.
	ZOscillation float64
	// Correlation between S(t) and z(t) shifted by one cross-RTT
	// (elastic: strongly negative; inelastic: near zero).
	ShiftedCorrelation float64
}

// RunFig04 runs a Nimbus flow against either one Cubic flow (elastic) or
// half-link CBR (inelastic) and records S/ẑ telemetry for a window.
func RunFig04(elastic bool, seed int64) Fig04Result {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	s := MustScheme("nimbus", r.MuBps)
	r.AddFlow(s, 50*sim.Millisecond, 0)
	if elastic {
		r.cubicCross(1, 50*sim.Millisecond, 0, 0)
	} else {
		r.crossCBR("", 50*sim.Millisecond, 48e6, 0)
	}
	res := Fig04Result{Elastic: elastic}
	from, to := 75*sim.Second, 78*sim.Second
	var sSamp, zSamp []float64
	s.Nimbus.OnTick = func(t core.Telemetry) {
		if t.Now >= from && t.Now < to {
			res.S.Add(t.Now, Mbps(t.Rate))
			res.Z.Add(t.Now, Mbps(t.Z))
			sSamp = append(sSamp, t.Rate)
			zSamp = append(zSamp, t.Z)
		}
	}
	r.Sch.RunUntil(to)

	if len(zSamp) > 10 {
		min, max, sum := zSamp[0], zSamp[0], 0.0
		for _, v := range zSamp {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		mean := sum / float64(len(zSamp))
		if mean > 0 {
			res.ZOscillation = (max - min) / mean
		}
		res.ShiftedCorrelation = corrShift(sSamp, zSamp, 5) // 50 ms at 10 ms ticks
	}
	return res
}

// corrShift computes Pearson correlation between x(t) and y(t+shift).
func corrShift(x, y []float64, shift int) float64 {
	n := len(x) - shift
	if n < 3 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i+shift]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i+shift]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (sqrt(sxx) * sqrt(syy))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Fig04 runs both panels.
func Fig04(seed int64) []Fig04Result {
	return mapCells(2, func(i int) Fig04Result {
		return RunFig04(i == 0, seed)
	})
}

// FormatFig04 renders the result.
func FormatFig04(rows []Fig04Result) string {
	var b strings.Builder
	b.WriteString("Fig 4: cross traffic reaction to 5 Hz pulses (75-78 s window)\n")
	fmt.Fprintf(&b, "%-10s %16s %22s\n", "cross", "z osc (pk-pk/mean)", "corr S(t) vs z(t+RTT)")
	for _, r := range rows {
		name := "inelastic"
		if r.Elastic {
			name = "elastic"
		}
		fmt.Fprintf(&b, "%-10s %16.2f %22.2f\n", name, r.ZOscillation, r.ShiftedCorrelation)
	}
	b.WriteString("expected shape: elastic z oscillates (negative correlation with pulses); inelastic flat\n")
	return b.String()
}
