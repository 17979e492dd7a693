package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/metrics"
	"nimbus/internal/sim"
)

// Fig12Result reproduces Fig. 12: the elasticity metric over time
// tracking the ground-truth elastic byte fraction of the trace workload;
// the headline number is classification accuracy > 90%.
type Fig12Result struct {
	EtaSeries         metrics.Series
	ElasticFracSeries metrics.Series
	Accuracy          float64
}

// RunFig12 runs Nimbus against the trace workload and scores the
// detector against ground truth (elastic fraction of active cross bytes
// above a low threshold — the paper classifies flows larger than the
// initial window as elastic).
func RunFig12(seed int64, dur sim.Time) Fig12Result {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	sch := MustScheme("nimbus", r.MuBps)
	r.AddFlow(sch, 50*sim.Millisecond, 0)
	w := r.crossTrace("", 50*sim.Millisecond, 0.5*r.MuBps)

	var res Fig12Result
	// The paper's Fig 12 shading: delay mode is "correct" when the
	// elastic byte fraction is low (< 0.3). The detector is scored with
	// hysteresis-free instantaneous truth, which understates accuracy
	// slightly (the detector needs 5 s of signal).
	acc := scoreModes(r, sch, func(sim.Time) bool { return w.ElasticByteFraction() >= 0.3 }, scoreWarmup)
	// Sample the two series at 100 ms for the plot.
	var sample func()
	sample = func() {
		res.EtaSeries.Add(r.Sch.Now(), sch.Nimbus.LastEta())
		res.ElasticFracSeries.Add(r.Sch.Now(), w.ElasticByteFraction())
		r.Sch.After(100*sim.Millisecond, sample)
	}
	r.Sch.After(100*sim.Millisecond, sample)

	r.Sch.RunUntil(dur)
	res.Accuracy = acc.Accuracy()
	return res
}

// Fig12 runs the experiment at the paper's horizon (or a quick one).
func Fig12(seed int64, quick bool) Fig12Result {
	dur := 200 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	return RunFig12(seed, dur)
}

// FormatFig12 renders the result.
func FormatFig12(r Fig12Result) string {
	var b strings.Builder
	b.WriteString("Fig 12: elasticity metric vs ground-truth elastic fraction (trace workload)\n")
	fmt.Fprintf(&b, "detector accuracy: %.0f%% (paper: >90%%)\n", r.Accuracy*100)
	return b.String()
}
