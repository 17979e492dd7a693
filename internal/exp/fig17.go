package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fig17Result reproduces Fig. 17: three Nimbus flows on a 192 Mbit/s
// link, with three Cubic cross flows during 30-90 s (elastic phase) and
// a 96 Mbit/s CBR stream during 90-150 s (inelastic phase). The Nimbus
// aggregate should track its fair share and keep delays low in the
// inelastic phase.
type Fig17Result struct {
	// Aggregate Nimbus throughput per phase vs fair share.
	ElasticAggMbps   float64 // fair share: 3/6 * 192 = 96
	InelasticAggMbps float64 // fair share: 192 - 96 = 96
	ElasticDelayMs   float64
	InelasticDelayMs float64
	AggSeries        []float64
}

// RunFig17 runs the scenario; scale shrinks phase lengths.
func RunFig17(seed int64, scale float64) Fig17Result {
	r := NewRig(NetConfig{RateMbps: 192, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	phase := func(x float64) sim.Time { return sim.Time(x * scale * float64(sim.Second)) }

	var probes []*FlowProbe
	for i := 0; i < 3; i++ {
		s := MustScheme("nimbus(multiflow=true)", r.MuBps)
		probes = append(probes, r.AddFlow(s, 50*sim.Millisecond, 0))
	}
	r.cubicCross(3, 50*sim.Millisecond, phase(30), phase(90))
	cbr := r.crossCBR("", 40*sim.Millisecond, 96e6, phase(90))
	r.Sch.At(phase(150), func() { cbr.Stop() })

	// Delay sampled from all Nimbus flows per phase.
	var elDelay, inelDelay struct {
		sum float64
		n   int
	}
	for _, p := range probes {
		addDeliverTapProbe(r, p, phase(35), phase(90), &elDelay.sum, &elDelay.n,
			phase(95), phase(150), &inelDelay.sum, &inelDelay.n)
	}

	r.Sch.RunUntil(phase(150))

	var res Fig17Result
	for _, p := range probes {
		res.ElasticAggMbps += p.MeanMbps(phase(35), phase(90))
		res.InelasticAggMbps += p.MeanMbps(phase(95), phase(150))
	}
	if elDelay.n > 0 {
		res.ElasticDelayMs = elDelay.sum / float64(elDelay.n)
	}
	if inelDelay.n > 0 {
		res.InelasticDelayMs = inelDelay.sum / float64(inelDelay.n)
	}
	// Aggregate series.
	var maxLen int
	series := make([][]float64, len(probes))
	for i, p := range probes {
		series[i] = p.Tput.SeriesMbps()
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	res.AggSeries = make([]float64, maxLen)
	for _, s := range series {
		for i, v := range s {
			res.AggSeries[i] += v
		}
	}
	return res
}

func addDeliverTapProbe(r *Rig, p *FlowProbe,
	f1, t1 sim.Time, sum1 *float64, n1 *int,
	f2, t2 sim.Time, sum2 *float64, n2 *int) {
	p.Sender.TapDeliveries(func(pkt *netem.Packet, now sim.Time) {
		switch {
		case now >= f1 && now < t1:
			*sum1 += pkt.QueueDelay.Millis()
			*n1++
		case now >= f2 && now < t2:
			*sum2 += pkt.QueueDelay.Millis()
			*n2++
		}
	})
}

// Fig17 runs at full or quarter scale.
func Fig17(seed int64, quick bool) Fig17Result {
	scale := 1.0
	if quick {
		scale = 0.4
	}
	return RunFig17(seed, scale)
}

// FormatFig17 renders the result.
func FormatFig17(r Fig17Result) string {
	var b strings.Builder
	b.WriteString("Fig 17: 3 Nimbus flows + elastic (3 Cubic) then inelastic (96 Mbit/s CBR) on 192 Mbit/s\n")
	fmt.Fprintf(&b, "elastic phase:   aggregate %.1f Mbit/s (fair 96), delay %.1f ms\n", r.ElasticAggMbps, r.ElasticDelayMs)
	fmt.Fprintf(&b, "inelastic phase: aggregate %.1f Mbit/s (fair 96), delay %.1f ms\n", r.InelasticAggMbps, r.InelasticDelayMs)
	b.WriteString("expected shape: ~fair share in both phases; much lower delay in the inelastic phase\n")
	return b.String()
}
