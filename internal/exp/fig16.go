package exp

import (
	"nimbus/internal/core"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig16 reproduces Fig. 16 (§8.3): four staggered Nimbus flows (Vegas as
// the delay algorithm, per the paper) share a 96 Mbit/s link with no
// other cross traffic. One flow at a time should be the pulser; the
// flows should share fairly and stay in delay mode. Quick mode shrinks
// the 120 s/480 s schedule to a quarter.
func Fig16(seed int64, quick bool) Report {
	scale := 1.0
	if quick {
		scale = 0.25
	}
	stagger := sim.Time(float64(120*sim.Second) * scale)
	life := sim.Time(float64(480*sim.Second) * scale)

	// Four specs, not one with Count 4: each flow has its own lifetime.
	scheme := spec.MustParse("nimbus-vegas(multiflow=true)")
	var specs []FlowSpec
	for i := 0; i < 4; i++ {
		start := sim.Time(i) * stagger
		specs = append(specs, FlowSpec{Scheme: scheme, StartAt: start, StopAt: start + life})
	}
	b := scoreCell{net: NetConfig{Seed: seed}, flows: specs}.mustBuild()
	r, flows := b.Rig, b.Flows

	// Delay-mode accounting per tick.
	var delayTicks, totalTicks int
	for _, f := range flows {
		onTick(f.Scheme.Nimbus, func(t core.Telemetry) {
			totalTicks++
			if t.Mode == core.ModeDelay {
				delayTicks++
			}
		})
	}
	// Pulser census after the first flow's detector warms up.
	var one, multi, zero, census int
	warm := stagger / 2
	var probeFn func()
	probeFn = func() {
		now := r.Sch.Now()
		if now > warm {
			active := 0
			pulsers := 0
			for _, f := range flows {
				if now < f.Spec.StartAt || now > f.Spec.StopAt {
					continue
				}
				active++
				if f.Scheme.Nimbus.Role() == core.RolePulser {
					pulsers++
				}
			}
			if active > 0 {
				census++
				switch {
				case pulsers == 1:
					one++
				case pulsers > 1:
					multi++
				default:
					zero++
				}
			}
		}
		r.Sch.AfterFunc(100*sim.Millisecond, probeFn)
	}
	r.Sch.AfterFunc(0, probeFn)

	end := 3*stagger + life
	r.Sch.RunUntil(end)

	// Fairness over the window where all four flows are active, from the
	// last join to the first departure (the paper's [360 s, 480 s)).
	st := FlowStats(flows, end)
	var delaySum float64
	for _, f := range flows {
		mean, _ := f.Probe.Delay.MeanQuantiles()
		delaySum += mean
	}
	frac := func(n, of int) float64 { return ratio(float64(n), float64(of)) }
	return Report{
		Panels: []Table{{
			Title: "Fig 16: four staggered Nimbus flows (Vegas delay mode), no cross traffic",
			Cols: []Col{
				{"per-flow Mbit/s", "", "per-flow Mbit/s (all active): %v\n"},
				{"jain", "", "Jain fairness index: %.3f\n"},
				// Pulser census, sampled every 100 ms after convergence.
				{"one pulser", "", "pulser census: one=%.2f"},
				{"multi pulser", "", " multi=%.2f"},
				{"no pulser", "", " none=%.2f\n"},
				// Fraction of flow-time in delay mode (correct).
				{"delay-mode frac", "", "delay-mode fraction: %.2f"},
				{"mean qdelay ms", "", "   mean queueing delay: %.1f ms\n"},
			},
			Rows: [][]any{{
				mbpsList(st.SharedMbps), st.Jain,
				frac(one, census), frac(multi, census), frac(zero, census),
				frac(delayTicks, totalTicks), delaySum / float64(len(flows)),
			}},
		}},
		Expect: "fair shares, exactly one pulser nearly always, mostly delay mode, low delays",
	}
}
