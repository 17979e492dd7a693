package exp

import (
	"fmt"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig06 reproduces Fig. 6: the elasticity metric η as the fraction of
// cross-traffic bytes belonging to elastic flows goes from 0% to 100%.
func Fig06(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	return Report{
		Panels: []Table{{
			Title: "Fig 6: elasticity metric vs elastic fraction of cross traffic",
			Cols: []Col{
				{"elastic frac", "%-16s", "%15.0f%%"},
				{"median eta", "%10s", "%10.2f"},
				{"frac eta>=2", "%18s", "%18.2f"},
			},
			Rows: mapCells(len(fracs), func(i int) []any {
				median, above := runFig06(fracs[i], seed, dur).etaStats()
				return []any{fracs[i] * 100, median, above}
			}),
		}},
		Expect: "median eta ~1 at 0% rising monotonically; >=25% elastic mostly above threshold",
	}
}

// runFig06 runs one elastic-fraction point: cross traffic is a
// fixed-window (ACK-clocked, rate-pinned) elastic component plus Poisson
// inelastic traffic, together offering about half the link.
func runFig06(frac float64, seed int64, dur sim.Time) *scoreResult {
	var c scoreCell
	crossTotal := 48e6
	if elasticRate := frac * crossTotal; elasticRate > 0 {
		// Fixed window sized for the target rate at the base RTT plus
		// expected queueing: W = rate * rtt / 8 bytes, in packets.
		rtt := 62 * sim.Millisecond // base + BasicDelay's target queue
		pkts := int(elasticRate / 8 * rtt.Seconds() / 1500)
		if pkts < 2 {
			pkts = 2
		}
		c.cross = append(c.cross, crossSpec{kind: fmt.Sprintf("fixedwindow(cwnd=%d)", pkts), label: "fixedwin", probed: true})
	}
	if inelasticRate := (1 - frac) * crossTotal; inelasticRate > 0 {
		c.cross = append(c.cross, crossSpec{kind: "poisson", rate: inelasticRate, rtt: 40 * sim.Millisecond})
	}
	return c.run(spec.MustParse("nimbus"), seed, dur)
}
