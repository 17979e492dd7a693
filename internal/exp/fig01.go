package exp

import (
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig01 reproduces Fig. 1: a flow on a 48 Mbit/s link competing with one
// Cubic flow for 60 s (elastic phase) and then 24 Mbit/s of Poisson
// traffic for 60 s (inelastic phase). One row per panel: "cubic",
// "nimbus-delay" (Fig. 1b) and "nimbus" (Fig. 1c).
func Fig01(seed int64, _ bool) Report {
	schemes := []string{"cubic", "nimbus-delay", "nimbus"}
	return Report{
		Panels: []Table{{
			Title: "Fig 1: 48 Mbit/s link; elastic (1 Cubic, 30-90s) then inelastic (24 Mbit/s Poisson, 90-150s)",
			Over:  "scheme              elastic phase    inelastic phase",
			// The header verbs cut each name down to its unit; the phase
			// is on the line above.
			Cols: []Col{
				{"scheme", "%-14.0s", "%-14s"},
				{"Mbit/s, elastic", "%9.6s", "%9.1f"},
				{"delay ms, elastic", "%8.8s", "%8.1f"},
				{"Mbit/s, inelastic", "%9.6s", "%9.1f"},
				{"delay ms, inelastic", "%8.8s", "%8.1f"},
			},
			Rows: mapCells(len(schemes), func(i int) []any { return runFig01(schemes[i], seed) }),
		}},
		Expect: "cubic=fair share+high delay both phases; nimbus-delay=low tput vs elastic, low delay vs inelastic; nimbus=fair share vs elastic AND low delay vs inelastic",
	}
}

// fig1a describes the scenario of Fig. 1a, which Fig. 3 runs too: the
// scheme on a 48 Mbit/s link, one Cubic cross flow over [30 s, 90 s) (the
// elastic phase), then 24 Mbit/s of Poisson traffic over [90 s, 150 s)
// (the inelastic phase). Both figures measure a phase from 5 s into it and
// run to 175 s.
func fig1a(scheme string, seed int64) scoreCell {
	return scoreCell{
		net:   NetConfig{RateMbps: 48, Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse(scheme)}},
		cross: []crossSpec{
			{kind: "cubic", label: "ccross0", start: 30 * sim.Second, stop: 90 * sim.Second},
			{kind: "poisson", rate: 24e6, rtt: 40 * sim.Millisecond, start: 90 * sim.Second, stop: 150 * sim.Second},
		},
	}
}

// runFig01 runs the scenario for one scheme and returns its row: mean
// throughput and mean queueing delay per phase.
func runFig01(scheme string, seed int64) []any {
	b := fig1a(scheme, seed).mustBuild()
	probe := b.Flows[0].Probe
	elasticDelay := metrics.NewDelayRecorder(0, b.Rig.Rng.Split("ed"))
	inelasticDelay := metrics.NewDelayRecorder(0, b.Rig.Rng.Split("id"))
	probe.Sender.TapDeliveries(func(p *netem.Packet, now sim.Time) {
		switch {
		case now >= 35*sim.Second && now < 90*sim.Second:
			elasticDelay.Add(p.QueueDelay)
		case now >= 95*sim.Second && now < 150*sim.Second:
			inelasticDelay.Add(p.QueueDelay)
		}
	})

	b.Rig.Sch.RunUntil(175 * sim.Second)

	elasticMean, _ := elasticDelay.MeanQuantiles()
	inelasticMean, _ := inelasticDelay.MeanQuantiles()
	return []any{
		scheme,
		probe.MeanMbps(35*sim.Second, 90*sim.Second), elasticMean,
		probe.MeanMbps(95*sim.Second, 150*sim.Second), inelasticMean,
	}
}
