package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/cc"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
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

// Fig08Row is one scheme's result on the Fig. 8 scenario.
type Fig08Row struct {
	Scheme string
	// MeanMbps and MeanDelayMs over the full run (after warmup).
	MeanMbps    float64
	MeanDelayMs float64
	// FairShareError is the mean |rate - fairShare| / fairShare across
	// phases (how closely the black line is tracked).
	FairShareError float64
	// ModeCorrectFrac, for mode-switching schemes: fraction of time in
	// the correct mode (elastic present => competitive).
	ModeCorrectFrac float64
	HasMode         bool
	// TputSeries / DelaySeries for the plot (1 s bins).
	TputSeries []float64
}

// RunFig08 runs the scripted scenario for one scheme on a 96 Mbit/s,
// 50 ms, 2 BDP link. phaseDur shortens the script for quick runs.
func RunFig08(scheme string, seed int64, phaseDur sim.Time) Fig08Row {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	sch := MustScheme(scheme, r.MuBps)
	probe := r.AddFlow(sch, 50*sim.Millisecond, 0)

	po := r.crossPoisson("", 40*sim.Millisecond, 0, 0)
	elastic := 0
	var cubics []*transport.Sender
	setPhase := func(p fig08Phase) func() {
		return func() {
			po.SetRate(p.PoissonMbps * 1e6)
			for elastic > p.CubicFlows {
				s := cubics[len(cubics)-1]
				cubics = cubics[:len(cubics)-1]
				s.Stop()
				elastic--
			}
			for elastic < p.CubicFlows {
				cubics = append(cubics, r.crossSender("ccross0", "", cc.NewCubic(), 50*sim.Millisecond, r.Sch.Now()))
				elastic++
			}
		}
	}
	for i, p := range fig08Script {
		r.Sch.At(sim.Time(i)*phaseDur, setPhase(p))
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
	acc := scoreModes(r, sch, truth, scoreWarmup)

	r.Sch.RunUntil(total)

	row := Fig08Row{Scheme: scheme}
	row.MeanMbps = probe.MeanMbps(5*sim.Second, total)
	row.MeanDelayMs = probe.Delay.Summary().Mean
	if acc != nil {
		row.HasMode = true
		row.ModeCorrectFrac = acc.Accuracy()
	}
	row.TputSeries = probe.Tput.SeriesMbps()

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
	if phases > 0 {
		row.FairShareError = errSum / float64(phases)
	}
	return row
}

// Fig08Schemes are the eight panels of Fig. 8.
var Fig08Schemes = []string{
	"nimbus", "nimbus-copa", "cubic", "bbr", "vegas", "compound", "copa", "vivace",
}

// Fig08 runs all panels.
func Fig08(seed int64, quick bool) []Fig08Row {
	phase := 20 * sim.Second
	if quick {
		phase = 12 * sim.Second
	}
	return mapCells(len(Fig08Schemes), func(i int) Fig08Row {
		return RunFig08(Fig08Schemes[i], seed, phase)
	})
}

// FormatFig08 renders the comparison.
func FormatFig08(rows []Fig08Row) string {
	var b strings.Builder
	b.WriteString("Fig 8: scripted cross traffic on 96 Mbit/s, 50 ms, 2 BDP (9 phases: Poisson Mbps / Cubic flows)\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %12s %10s\n", "scheme", "Mbit/s", "delay ms", "fair-err", "mode-acc")
	for _, r := range rows {
		mode := "   -"
		if r.HasMode {
			mode = fmt.Sprintf("%.2f", r.ModeCorrectFrac)
		}
		fmt.Fprintf(&b, "%-14s %8.1f %10.1f %12.2f %10s\n",
			r.Scheme, r.MeanMbps, r.MeanDelayMs, r.FairShareError, mode)
	}
	b.WriteString("expected shape: nimbus tracks fair share with low delay vs inelastic; cubic high delay; vegas/compound lose to cubic; copa switches modes but with more errors\n")
	return b.String()
}
