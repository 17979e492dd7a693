package exp

import (
	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fig03 reproduces Fig. 3, the strawman: it runs the Fig. 1a scenario
// with a Cubic flow and measures the flow's exact share of the
// bottleneck queue, sampled every 100 ms. The self-inflicted share looks
// the same in the elastic and the inelastic phase (about half in both),
// so instantaneous delay decomposition cannot reveal elasticity.
func Fig03(seed int64, _ bool) Report {
	b := fig1a("cubic", seed).mustBuild()
	r := b.Rig

	// Track exact per-flow bytes in the bottleneck queue.
	flowID := b.Flows[0].Probe.Sender.ID()
	var sumSelfEl, sumTotEl, sumSelfInel, sumTotInel float64
	q := r.Link.Q.(*netem.DropTail)
	var sample func()
	sample = func() {
		now := r.Sch.Now()
		totalBytes := float64(q.BytesQueued())
		selfBytes := float64(q.BytesForFlow(flowID))
		switch {
		case now >= 35*sim.Second && now < 90*sim.Second:
			sumSelfEl += selfBytes
			sumTotEl += totalBytes
		case now >= 95*sim.Second && now < 150*sim.Second:
			sumSelfInel += selfBytes
			sumTotInel += totalBytes
		}
		r.Sch.AfterFunc(100*sim.Millisecond, sample)
	}
	r.Sch.AfterFunc(100*sim.Millisecond, sample)
	r.Sch.RunUntil(175 * sim.Second)

	return Report{
		Panels: []Table{{
			Title: "Fig 3: self-inflicted delay does not reveal elasticity (Cubic flow)",
			Cols: []Col{
				{"self/total, elastic", "", "self/total queue share, elastic phase:   %.2f\n"},
				{"self/total, inelastic", "", "self/total queue share, inelastic phase: %.2f\n"},
			},
			Rows: [][]any{{ratio(sumSelfEl, sumTotEl), ratio(sumSelfInel, sumTotInel)}},
		}},
		Expect: "both ratios ~ flow's throughput share (~0.5), indistinguishable",
	}
}
