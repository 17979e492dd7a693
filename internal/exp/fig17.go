package exp

import (
	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fig17 reproduces Fig. 17: three Nimbus flows on a 192 Mbit/s link,
// with three Cubic cross flows during 30-90 s (elastic phase, fair share
// 3/6 * 192 = 96) and a 96 Mbit/s CBR stream during 90-150 s (inelastic
// phase, fair share 192 - 96 = 96). The Nimbus aggregate should track its
// fair share and keep delays low in the inelastic phase. Quick mode
// shrinks the phases to 0.4 of their length.
func Fig17(seed int64, quick bool) Report {
	scale := 1.0
	if quick {
		scale = 0.4
	}
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

	var elAgg, inelAgg float64
	for _, p := range probes {
		elAgg += p.MeanMbps(phase(35), phase(90))
		inelAgg += p.MeanMbps(phase(95), phase(150))
	}
	return Report{
		Panels: []Table{{
			Title: "Fig 17: 3 Nimbus flows + elastic (3 Cubic) then inelastic (96 Mbit/s CBR) on 192 Mbit/s",
			Cols: []Col{
				{"elastic agg Mbit/s", "", "elastic phase:   aggregate %.1f Mbit/s (fair 96)"},
				{"elastic delay ms", "", ", delay %.1f ms\n"},
				{"inelastic agg Mbit/s", "", "inelastic phase: aggregate %.1f Mbit/s (fair 96)"},
				{"inelastic delay ms", "", ", delay %.1f ms\n"},
			},
			Rows: [][]any{{elAgg, ratio(elDelay.sum, float64(elDelay.n)), inelAgg, ratio(inelDelay.sum, float64(inelDelay.n))}},
		}},
		Expect: "~fair share in both phases; much lower delay in the inelastic phase",
	}
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
