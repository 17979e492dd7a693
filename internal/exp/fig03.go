package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fig03Result reproduces Fig. 3: the strawman. A Cubic flow's
// self-inflicted queueing delay looks identical in the elastic and
// inelastic phases (~half the total delay in both), so instantaneous
// delay decomposition cannot reveal elasticity.
type Fig03Result struct {
	// Ratios self/total per phase (the paper's point: both ~ flow's
	// throughput share ~ 0.5).
	ElasticSelfRatio   float64
	InelasticSelfRatio float64
	TotalDelaySer      []float64 // per-100ms total queueing delay (ms)
	SelfDelaySer       []float64 // per-100ms self-inflicted share (ms)
	TimeSer            []float64
}

// RunFig03 runs the Fig. 1a scenario with a Cubic flow and measures the
// flow's exact share of the bottleneck queue occupancy over time.
func RunFig03(seed int64) Fig03Result {
	r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	probe := r.AddFlow(MustScheme("cubic", r.MuBps), 50*sim.Millisecond, 0)
	r.cubicCross(1, 50*sim.Millisecond, 30*sim.Second, 90*sim.Second)
	po := r.crossPoisson("", 40*sim.Millisecond, 24e6, 90*sim.Second)
	r.Sch.At(150*sim.Second, func() { po.Stop() })

	// Track exact per-flow bytes in the bottleneck queue via taps.
	flowID := probe.Sender.ID()
	var res Fig03Result
	var sumSelfEl, sumTotEl, sumSelfInel, sumTotInel float64
	q := r.Link.Q.(*netem.DropTail)
	var sample func()
	sample = func() {
		now := r.Sch.Now()
		totalBytes := float64(q.BytesQueued())
		selfBytes := float64(q.BytesForFlow(flowID))
		toMs := func(b float64) float64 { return b * 8 / r.MuBps * 1000 }
		res.TimeSer = append(res.TimeSer, now.Seconds())
		res.TotalDelaySer = append(res.TotalDelaySer, toMs(totalBytes))
		res.SelfDelaySer = append(res.SelfDelaySer, toMs(selfBytes))
		switch {
		case now >= 35*sim.Second && now < 90*sim.Second:
			sumSelfEl += selfBytes
			sumTotEl += totalBytes
		case now >= 95*sim.Second && now < 150*sim.Second:
			sumSelfInel += selfBytes
			sumTotInel += totalBytes
		}
		r.Sch.After(100*sim.Millisecond, sample)
	}
	r.Sch.After(100*sim.Millisecond, sample)
	r.Sch.RunUntil(175 * sim.Second)

	if sumTotEl > 0 {
		res.ElasticSelfRatio = sumSelfEl / sumTotEl
	}
	if sumTotInel > 0 {
		res.InelasticSelfRatio = sumSelfInel / sumTotInel
	}
	return res
}

// FormatFig03 renders the result.
func FormatFig03(res Fig03Result) string {
	var b strings.Builder
	b.WriteString("Fig 3: self-inflicted delay does not reveal elasticity (Cubic flow)\n")
	fmt.Fprintf(&b, "self/total queue share, elastic phase:   %.2f\n", res.ElasticSelfRatio)
	fmt.Fprintf(&b, "self/total queue share, inelastic phase: %.2f\n", res.InelasticSelfRatio)
	b.WriteString("expected shape: both ratios ~ flow's throughput share (~0.5), indistinguishable\n")
	return b.String()
}
