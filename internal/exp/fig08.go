package exp

import (
	"nimbus/internal/crosstraffic"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// fig08Phase is one 20-second segment of the Fig. 8 cross-traffic script:
// xM Mbit/s of Poisson traffic plus y long-running Cubic flows.
type fig08Phase struct {
	PoissonMbps float64
	CubicFlows  int
}

// The script printed across the top of Fig. 8 ("xM / yT").
var fig08Script = []fig08Phase{
	{16, 1}, {32, 2}, {0, 4}, {0, 3}, {0, 1}, {16, 0}, {32, 0}, {48, 0}, {16, 0},
}

// fairShare returns the correct fair-share rate for the probe flow in a
// phase: (µ - inelastic) / (1 + elastic flows).
func (p fig08Phase) fairShare(muMbps float64) float64 {
	return (muMbps - p.PoissonMbps) / float64(1+p.CubicFlows)
}

// Fig08Schemes are the eight panels of Fig. 8.
var Fig08Schemes = []string{
	"nimbus", "nimbus-copa", "cubic", "bbr", "vegas", "compound", "copa", "vivace",
}

// Fig08 runs all panels of Fig. 8: each scheme against the scripted
// cross traffic on a 96 Mbit/s, 50 ms, 2 BDP link.
func Fig08(seed int64, quick bool) Report {
	phase := 20 * sim.Second
	if quick {
		phase = 12 * sim.Second
	}
	return fig08(Fig08Schemes, seed, phase)
}

// fig08 runs the script with phases of phaseDur for the given schemes.
func fig08(schemes []string, seed int64, phaseDur sim.Time) Report {
	return Report{
		Panels: []Table{{
			Title: "Fig 8: scripted cross traffic on 96 Mbit/s, 50 ms, 2 BDP (9 phases: Poisson Mbps / Cubic flows)",
			Cols: []Col{
				{"scheme", "%-14s", "%-14s"},
				// Mean rate and queueing delay over the run, after warm-up.
				{"Mbit/s", "%8s", "%8.1f"},
				{"delay ms", "%10s", "%10.1f"},
				// Mean |rate - fairShare| / fairShare across phases.
				{"fair-err", "%12s", "%12.2f"},
				// Fraction of time in the correct mode (elastic present
				// => competitive); "-" for schemes without modes.
				{"mode-acc", "%10s", "%10.2f"},
			},
			Rows: mapCells(len(schemes), func(i int) []any { return runFig08(schemes[i], seed, phaseDur) }),
		}},
		Expect: "nimbus tracks fair share with low delay vs inelastic; cubic high delay; vegas/compound lose to cubic; copa switches modes but with more errors",
	}
}

func runFig08(scheme string, seed int64, phaseDur sim.Time) []any {
	b := scoreCell{
		net:   NetConfig{Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse(scheme)}},
		// Silent until the script sets its rate.
		cross: []crossSpec{{kind: "poisson", rtt: 40 * sim.Millisecond}},
	}.mustBuild()
	r, probe := b.Rig, b.Flows[0].Probe

	po := b.cross[0].(*crosstraffic.RawSource)
	var cubics []crossSource
	setPhase := func(p fig08Phase) func() {
		return func() {
			po.SetRate(p.PoissonMbps * 1e6)
			for len(cubics) > p.CubicFlows {
				cubics[len(cubics)-1].Stop()
				cubics = cubics[:len(cubics)-1]
			}
			for len(cubics) < p.CubicFlows {
				cubics = append(cubics, r.addCross(crossSpec{kind: "cubic", label: "ccross0", rtt: r.Cfg.RTT, start: r.Sch.Now()}))
			}
		}
	}
	for i, p := range fig08Script {
		r.Sch.AtFunc(sim.Time(i)*phaseDur, setPhase(p))
	}
	total := sim.Time(len(fig08Script)) * phaseDur

	// Ground truth for mode-switching schemes.
	truth := func(now sim.Time) bool {
		idx := int(now / phaseDur)
		if idx >= len(fig08Script) {
			idx = len(fig08Script) - 1
		}
		return fig08Script[idx].CubicFlows > 0
	}
	acc := scoreModes(r, b.Flows[0].Scheme, truth, scoreWarmup)

	r.Sch.RunUntil(total)

	// Fair-share tracking error, skipping the first 5 s of each phase
	// (convergence time; the paper's detector itself needs 5 s).
	var errSum float64
	var phases int
	for i, p := range fig08Script {
		from := sim.Time(i)*phaseDur + 5*sim.Second
		to := sim.Time(i+1) * phaseDur
		if from >= to {
			continue
		}
		got := probe.MeanMbps(from, to)
		want := p.fairShare(96)
		if want <= 0 {
			continue
		}
		e := (got - want) / want
		if e < 0 {
			e = -e
		}
		errSum += e
		phases++
	}
	var fairErr float64
	if phases > 0 {
		fairErr = errSum / float64(phases)
	}
	var modeAcc any
	if acc != nil {
		modeAcc = acc.Accuracy()
	}
	delay, _ := probe.Delay.MeanQuantiles()
	return []any{scheme, probe.MeanMbps(5*sim.Second, total), delay, fairErr, modeAcc}
}
