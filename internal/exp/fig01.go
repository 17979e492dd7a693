package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fig01Result reproduces Fig. 1: a flow on a 48 Mbit/s link competing
// with one Cubic flow for 60 s (elastic phase) and then 24 Mbit/s of
// Poisson traffic for 60 s (inelastic phase).
type Fig01Result struct {
	Scheme string
	// Phase means: throughput (Mbit/s) and mean queueing delay (ms).
	ElasticMbps    float64
	ElasticDelay   float64
	InelasticMbps  float64
	InelasticDelay float64
	// Series for the plots (1 s bins / per-second means).
	Tput  []float64
	Delay metrics.Series
}

// RunFig01 runs the Fig. 1 scenario for one scheme ("cubic",
// "nimbus-delay" for Fig 1b, "nimbus" for Fig 1c).
func RunFig01(scheme string, seed int64) Fig01Result {
	r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	probe := r.AddFlow(MustScheme(scheme, r.MuBps), 50*sim.Millisecond, 0)

	// Elastic phase: one Cubic flow from 30 s to 90 s.
	r.cubicCross(1, 50*sim.Millisecond, 30*sim.Second, 90*sim.Second)
	// Inelastic phase: 24 Mbit/s Poisson from 90 s to 150 s.
	po := r.crossPoisson("", 40*sim.Millisecond, 24e6, 90*sim.Second)
	r.Sch.At(150*sim.Second, func() { po.Stop() })

	// Queueing delay series sampled every 100 ms from the probe flow,
	// plus per-phase delay recorders.
	var delaySer metrics.Series
	var lastQ float64
	elasticDelay := metrics.NewDelayRecorder(0, r.Rng.Split("ed"))
	inelasticDelay := metrics.NewDelayRecorder(0, r.Rng.Split("id"))
	probe.Sender.TapDeliveries(func(p *netem.Packet, now sim.Time) {
		lastQ = p.QueueDelay.Millis()
		switch {
		case now >= 35*sim.Second && now < 90*sim.Second:
			elasticDelay.Add(p.QueueDelay)
		case now >= 95*sim.Second && now < 150*sim.Second:
			inelasticDelay.Add(p.QueueDelay)
		}
	})
	var sample func()
	sample = func() {
		delaySer.Add(r.Sch.Now(), lastQ)
		r.Sch.After(100*sim.Millisecond, sample)
	}
	r.Sch.After(100*sim.Millisecond, sample)

	r.Sch.RunUntil(175 * sim.Second)

	return Fig01Result{
		Scheme:         scheme,
		ElasticMbps:    probe.MeanMbps(35*sim.Second, 90*sim.Second),
		ElasticDelay:   elasticDelay.Summary().Mean,
		InelasticMbps:  probe.MeanMbps(95*sim.Second, 150*sim.Second),
		InelasticDelay: inelasticDelay.Summary().Mean,
		Tput:           probe.Tput.SeriesMbps(),
		Delay:          delaySer,
	}
}

// Fig01 runs the three panels of Fig. 1.
func Fig01(seed int64) []Fig01Result {
	schemes := []string{"cubic", "nimbus-delay", "nimbus"}
	return mapCells(len(schemes), func(i int) Fig01Result {
		return RunFig01(schemes[i], seed)
	})
}

// FormatFig01 renders the paper-style comparison.
func FormatFig01(rows []Fig01Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: 48 Mbit/s link; elastic (1 Cubic, 30-90s) then inelastic (24 Mbit/s Poisson, 90-150s)\n")
	fmt.Fprintf(&b, "%-14s %18s %18s\n", "scheme", "elastic phase", "inelastic phase")
	fmt.Fprintf(&b, "%-14s %9s %8s %9s %8s\n", "", "Mbit/s", "delay ms", "Mbit/s", "delay ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9.1f %8.1f %9.1f %8.1f\n",
			r.Scheme, r.ElasticMbps, r.ElasticDelay, r.InelasticMbps, r.InelasticDelay)
	}
	b.WriteString("expected shape: cubic=fair share+high delay both phases; nimbus-delay=low tput vs elastic, low delay vs inelastic; nimbus=fair share vs elastic AND low delay vs inelastic\n")
	return b.String()
}
