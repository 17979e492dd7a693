package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// Fig12 reproduces Fig. 12's headline number: Nimbus against the trace
// workload, its mode decisions scored against the ground-truth elastic
// byte fraction (the paper classifies flows larger than the initial
// window as elastic); the paper reports accuracy above 90%.
func Fig12(seed int64, quick bool) Report {
	dur := 200 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	b := scoreCell{
		net:   NetConfig{Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse("nimbus")}},
		cross: []crossSpec{{kind: "trace", rate: 0.5 * 96e6}},
	}.mustBuild()
	w := b.cross[0].(*workload.Generator)
	// The paper's Fig 12 shading: delay mode is "correct" when the
	// elastic byte fraction is low (< 0.3). The detector is scored with
	// hysteresis-free instantaneous truth, which understates accuracy
	// slightly (the detector needs 5 s of signal).
	acc := scoreModes(b.Rig, b.Flows[0].Scheme, func(sim.Time) bool { return w.ElasticByteFraction() >= 0.3 }, scoreWarmup)
	b.Rig.Sch.RunUntil(dur)
	return Report{Panels: []Table{{
		Title: "Fig 12: elasticity metric vs ground-truth elastic fraction (trace workload)",
		Cols:  []Col{{"accuracy %", "", "detector accuracy: %.0f%% (paper: >90%%)\n"}},
		Rows:  [][]any{{acc.Accuracy() * 100}},
	}}}
}
