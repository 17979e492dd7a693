package exp

import "nimbus/internal/sim"

// Fig12 reproduces Fig. 12's headline number: Nimbus against the trace
// workload, its mode decisions scored against the ground-truth elastic
// byte fraction (the paper classifies flows larger than the initial
// window as elastic); the paper reports accuracy above 90%.
func Fig12(seed int64, quick bool) Report {
	dur := 200 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	sch := MustScheme("nimbus", r.MuBps)
	r.AddFlow(sch, 50*sim.Millisecond, 0)
	w := r.crossTrace("", 50*sim.Millisecond, 0.5*r.MuBps)
	// The paper's Fig 12 shading: delay mode is "correct" when the
	// elastic byte fraction is low (< 0.3). The detector is scored with
	// hysteresis-free instantaneous truth, which understates accuracy
	// slightly (the detector needs 5 s of signal).
	acc := scoreModes(r, sch, func(sim.Time) bool { return w.ElasticByteFraction() >= 0.3 }, scoreWarmup)
	r.Sch.RunUntil(dur)
	return Report{Panels: []Table{{
		Title: "Fig 12: elasticity metric vs ground-truth elastic fraction (trace workload)",
		Cols:  []Col{{"accuracy %", "", "detector accuracy: %.0f%% (paper: >90%%)\n"}},
		Rows:  [][]any{{acc.Accuracy() * 100}},
	}}}
}
