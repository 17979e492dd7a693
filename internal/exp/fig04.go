package exp

import (
	"math"

	"nimbus/internal/core"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// pulseRig builds the scenario of Figs. 4 and 5: a Nimbus flow on the
// standard rig against one Cubic flow (the "elastic" row) or half-link
// CBR (the "inelastic" row). It returns the row's name as well.
func pulseRig(elastic bool, seed int64) (*Cell, string) {
	c := scoreCell{
		net:   NetConfig{Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse("nimbus")}},
		cross: []crossSpec{{kind: "cbr", rate: 48e6}},
	}
	name := "inelastic"
	if elastic {
		c.cross, name = cubicSpecs(1, 0, 0), "elastic"
	}
	return c.mustBuild(), name
}

// Fig04 reproduces Fig. 4: the sender's pulsed rate S(t) against the
// estimated cross-traffic rate ẑ(t) over a 3-second zoom window. Elastic
// ẑ is anti-correlated with the pulses; inelastic ẑ is flat.
func Fig04(seed int64, _ bool) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 4: cross traffic reaction to 5 Hz pulses (75-78 s window)",
			Cols: []Col{
				{"cross", "%-10s", "%-10s"},
				// Peak-to-peak amplitude of ẑ in the window over its mean.
				{"z osc (pk-pk/mean)", "%16s", "%16.2f"},
				// S(t) against z shifted by one cross-RTT: strongly
				// negative for elastic, near zero for inelastic.
				{"corr S(t) vs z(t+RTT)", "%22s", "%22.2f"},
			},
			Rows: mapCells(2, func(i int) []any { return runFig04(i == 0, seed) }),
		}},
		Expect: "elastic z oscillates (negative correlation with pulses); inelastic flat",
	}
}

func runFig04(elastic bool, seed int64) []any {
	b, name := pulseRig(elastic, seed)
	from, to := 75*sim.Second, 78*sim.Second
	var sSamp, zSamp []float64
	onTick(b.Flows[0].Scheme.Nimbus, func(t core.Telemetry) {
		if t.Now >= from && t.Now < to {
			sSamp = append(sSamp, t.Rate)
			zSamp = append(zSamp, t.Z)
		}
	})
	b.Rig.Sch.RunUntil(to)

	var osc, corr float64
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
			osc = (max - min) / mean
		}
		corr = corrShift(sSamp, zSamp, 5) // 50 ms at 10 ms ticks
	}
	return []any{name, osc, corr}
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
