package exp

import (
	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
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
	phase := func(x float64) sim.Time { return sim.Time(x * scale * float64(sim.Second)) }
	b := scoreCell{
		net:   NetConfig{RateMbps: 192, Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse("nimbus(multiflow=true)"), Count: 3}},
		cross: append(cubicSpecs(3, phase(30), phase(90)),
			crossSpec{kind: "cbr", rate: 96e6, rtt: 40 * sim.Millisecond, start: phase(90), stop: phase(150)}),
	}.mustBuild()

	// Delay sampled from all Nimbus flows per phase.
	elFrom, elTo, inelFrom, inelTo := phase(35), phase(90), phase(95), phase(150)
	var elDelay, inelDelay struct {
		sum float64
		n   int
	}
	for _, f := range b.Flows {
		f.Probe.Sender.TapDeliveries(func(p *netem.Packet, now sim.Time) {
			switch {
			case now >= elFrom && now < elTo:
				elDelay.sum += p.QueueDelay.Millis()
				elDelay.n++
			case now >= inelFrom && now < inelTo:
				inelDelay.sum += p.QueueDelay.Millis()
				inelDelay.n++
			}
		})
	}

	b.Rig.Sch.RunUntil(inelTo)

	var elAgg, inelAgg float64
	for _, f := range b.Flows {
		elAgg += f.Probe.MeanMbps(elFrom, elTo)
		inelAgg += f.Probe.MeanMbps(inelFrom, inelTo)
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
