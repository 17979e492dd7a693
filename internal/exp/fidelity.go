package exp

import (
	"errors"
	"fmt"
	"math"

	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
)

// The fidelity experiment family scores the fluid cross-traffic
// approximation against the exact per-packet path it replaces: each
// cell runs the same scenario twice — once with per-packet cross
// traffic, once with the aggregate as a fluid rate process
// (Scenario.FluidCross) — and reports what the approximation costs
// (mode-accuracy delta, queueing-delay error) against what it buys
// (scheduler events saved, wall-clock speedup). It is the regression
// gate for the fluid path: scripts/check_bench.sh pins the event
// reduction, and this family pins the accuracy side of the trade.

// fidelityCell is one sweep point; the zero AQM/topology means the
// standard drop-tail bottleneck.
type fidelityCell struct {
	cross     string
	crossMbps float64
	aqm       string
	topology  string
}

// fidelityCells returns the sweep. The cross-heavy cells (84 Mbit/s of
// aggregate on the 96 Mbit/s bottleneck, 0.875 of capacity) are the
// headline: the regime the fluid path exists for, where per-packet
// cross traffic dominates the event count and the approximation is
// near-exact. The moderate and elastic cells chart the fidelity
// envelope, and the full horizon adds the cases DESIGN.md's decision
// table calls out — an AQM bottleneck (fluid load is invisible to the
// drop law) and a multi-hop topology (fluid on every hop). Loads much
// past ~0.9 of capacity are outside the model's validity envelope (see
// DESIGN.md) and deliberately not swept.
func fidelityCells(quick bool) []fidelityCell {
	cells := []fidelityCell{
		{cross: "cbr", crossMbps: 84},
		{cross: "poisson", crossMbps: 84},
		{cross: "poisson", crossMbps: 48},
		{cross: "cbr", crossMbps: 24},
		{cross: "cubic"},
	}
	if !quick {
		cells = append(cells,
			fidelityCell{cross: "reno"},
			fidelityCell{cross: "poisson", crossMbps: 48, aqm: "codel"},
			fidelityCell{cross: "poisson", crossMbps: 48, topology: "access-hop"},
		)
	}
	return cells
}

// Fidelity runs the packet-vs-fluid comparison on the package worker
// pool: both variants of every cell share one scenario definition (and
// therefore one effective seed), differing only in FluidCross. One row
// per cell: both runs' mode accuracy and mean queueing delay, the
// approximation error, and the event and wall-clock savings. The wall
// column is host-dependent; everything else is deterministic per seed.
func Fidelity(seed int64, quick bool) Report {
	dur := 60.0
	if quick {
		dur = 30
	}
	cells := fidelityCells(quick)
	scs := make([]runner.Scenario, 0, 2*len(cells))
	for _, c := range cells {
		base := runner.Scenario{
			Scheme: spec.New("nimbus"), RateMbps: 96, RTTms: 50, BufferMs: 100,
			AQM: c.aqm, Topology: c.topology,
			Cross: c.cross, CrossRateMbps: c.crossMbps,
			DurationSec: dur, Seed: seed,
		}
		fluid := base
		fluid.FluidCross = "on"
		scs = append(scs, base, fluid)
	}
	rn := &runner.Runner{Workers: Workers}
	rs := rn.Run(scs, RunScenario)
	t := Table{
		Title: "Fidelity: per-packet vs fluid-model cross traffic (same scenario, same seed)",
		Cols: []Col{
			{"cross", "%-11s", "%-11s"},
			{"where", "%-12s", "%-12s"},
			{"acc pkt", "%7s", "%7.3f"},
			{"acc fld", "%7s", "%7.3f"},
			// Absolute mode-accuracy difference.
			{"dacc", "%6s", "%6.3f"},
			{"qd pkt", "%8s", "%5.1f ms"},
			{"qd fld", "%8s", "%5.1f ms"},
			// The fluid run's mean queueing delay against the packet run's.
			{"qd err", "%7s", "%6.1f%%"},
			// Scheduler events and wall clock, packet run over fluid run.
			{"ev ratio", "%8s", "%7.1fx"},
			{"wall", "%6s", "%5.1fx"},
		},
	}
	for i := range cells {
		pkt, fld := rs[2*i], rs[2*i+1]
		row := []any{crossLabel(pkt.Scenario), where(pkt.Scenario)}
		if pkt.Err != "" || fld.Err != "" {
			t.Rows = append(t.Rows, append(row, errors.New(pkt.Err+fld.Err)))
			continue
		}
		accP, accF := pkt.Metrics["mode_accuracy"], fld.Metrics["mode_accuracy"]
		qdP, qdF := pkt.Metrics["qdelay_mean_ms"], fld.Metrics["qdelay_mean_ms"]
		t.Rows = append(t.Rows, append(row,
			accP, accF, math.Abs(accP-accF),
			qdP, qdF, ratio(math.Abs(qdF-qdP), qdP)*100,
			ratio(float64(pkt.Events), float64(fld.Events)), ratio(pkt.WallSec, fld.WallSec)))
	}
	return Report{
		Panels: []Table{t},
		Expect: "inelastic drop-tail cells hold mode accuracy within 0.02 and mean queueing delay within a few percent, with >=5x fewer events on the cross-heavy (84 Mbit/s) cells; elastic cells keep the detector's classification but overdeepen the queue (the window model is coarser than per-flow cwnd dynamics); the codel row shows the documented AQM fidelity gap (fluid load is invisible to the drop law) — both gaps are why the fluid path is an explicit opt-in",
	}
}

// crossLabel names a row's aggregate: kind plus offered rate for the
// inelastic models (elastic aggregates find their own rate).
func crossLabel(sc runner.Scenario) string {
	if sc.CrossRateMbps > 0 {
		return fmt.Sprintf("%s@%g", sc.Cross, sc.CrossRateMbps)
	}
	return sc.Cross
}

// where labels the bottleneck variant of a fidelity row.
func where(sc runner.Scenario) string {
	switch {
	case sc.Topology != "":
		return sc.Topology
	case sc.AQM != "":
		return sc.AQM
	}
	return "droptail"
}
