package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/core"
	"nimbus/internal/metrics"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig16Result reproduces Fig. 16 (§8.3): four staggered Nimbus flows
// (Vegas as the delay algorithm, per the paper) share a 96 Mbit/s link
// with no other cross traffic. One flow at a time should be the pulser;
// the flows should share fairly and stay in delay mode.
type Fig16Result struct {
	// PerFlowMbps in the all-four-active window.
	PerFlowMbps []float64
	JainIndex   float64
	// Pulser counts sampled at 100 ms after convergence.
	FracOnePulser   float64
	FracMultiPulser float64
	FracNoPulser    float64
	// DelayModeFrac: fraction of flow-time in delay mode (correct).
	DelayModeFrac float64
	MeanDelayMs   float64
	RateSeries    []metrics.Series
}

// RunFig16 runs the staggered-arrival scenario. Scale shrinks the
// 120 s/480 s schedule for quick runs.
func RunFig16(seed int64, scale float64) Fig16Result {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	stagger := sim.Time(float64(120*sim.Second) * scale)
	life := sim.Time(float64(480*sim.Second) * scale)

	// Four specs, not one with Count 4: each flow has its own lifetime.
	scheme := spec.MustParse("nimbus-vegas(multiflow=true)")
	var specs []FlowSpec
	for i := 0; i < 4; i++ {
		start := sim.Time(i) * stagger
		specs = append(specs, FlowSpec{Scheme: scheme, StartAt: start, StopAt: start + life})
	}
	flows, err := r.AddFlowSpecs(specs...)
	if err != nil {
		panic(err)
	}

	// Delay-mode accounting per tick.
	var delayTicks, totalTicks int
	for _, f := range flows {
		f.Scheme.Nimbus.OnTick = func(t core.Telemetry) {
			totalTicks++
			if t.Mode == core.ModeDelay {
				delayTicks++
			}
		}
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
		r.Sch.After(100*sim.Millisecond, probeFn)
	}
	r.Sch.After(0, probeFn)

	end := 3*stagger + life
	r.Sch.RunUntil(end)

	res := Fig16Result{}
	// Fairness window: all four flows active (3*stagger .. stagger+life).
	from, to := 3*stagger, stagger+life
	if to > from {
		for _, f := range flows {
			res.PerFlowMbps = append(res.PerFlowMbps, f.Probe.MeanMbps(from, to))
		}
		res.JainIndex = metrics.JainIndex(res.PerFlowMbps)
	}
	if census > 0 {
		res.FracOnePulser = float64(one) / float64(census)
		res.FracMultiPulser = float64(multi) / float64(census)
		res.FracNoPulser = float64(zero) / float64(census)
	}
	if totalTicks > 0 {
		res.DelayModeFrac = float64(delayTicks) / float64(totalTicks)
	}
	var delays []float64
	for _, f := range flows {
		delays = append(delays, f.Probe.Delay.Summary().Mean)
		res.RateSeries = append(res.RateSeries, metrics.Series{V: f.Probe.Tput.SeriesMbps()})
	}
	var s float64
	for _, d := range delays {
		s += d
	}
	res.MeanDelayMs = s / float64(len(delays))
	return res
}

// Fig16 runs at the paper's horizon or a scaled-down one.
func Fig16(seed int64, quick bool) Fig16Result {
	scale := 1.0
	if quick {
		scale = 0.25
	}
	return RunFig16(seed, scale)
}

// FormatFig16 renders the result.
func FormatFig16(r Fig16Result) string {
	var b strings.Builder
	b.WriteString("Fig 16: four staggered Nimbus flows (Vegas delay mode), no cross traffic\n")
	fmt.Fprintf(&b, "per-flow Mbit/s (all active): %v\n", fmtSlice(r.PerFlowMbps))
	fmt.Fprintf(&b, "Jain fairness index: %.3f\n", r.JainIndex)
	fmt.Fprintf(&b, "pulser census: one=%.2f multi=%.2f none=%.2f\n", r.FracOnePulser, r.FracMultiPulser, r.FracNoPulser)
	fmt.Fprintf(&b, "delay-mode fraction: %.2f   mean queueing delay: %.1f ms\n", r.DelayModeFrac, r.MeanDelayMs)
	b.WriteString("expected shape: fair shares, exactly one pulser nearly always, mostly delay mode, low delays\n")
	return b.String()
}

func fmtSlice(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, ", ")
}
