package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Fig06Row reproduces one curve of Fig. 6: the CDF of the elasticity
// metric η as the fraction of cross-traffic bytes belonging to elastic
// flows varies from 0% to 100%.
type Fig06Row struct {
	ElasticFraction float64 // 0, 0.25, 0.5, 0.75, 1.0
	EtaCDF          []stats.CDFPoint
	MedianEta       float64
	FracAboveThresh float64 // fraction of samples with eta >= 2
}

// RunFig06Point runs one elastic-fraction point: cross traffic is a
// fixed-window (ACK-clocked, rate-pinned) elastic component plus Poisson
// inelastic traffic, together offering ~half the link.
func RunFig06Point(frac float64, seed int64, dur sim.Time) Fig06Row {
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
	res := c.run(spec.MustParse("nimbus"), seed, dur)

	row := Fig06Row{ElasticFraction: frac, EtaCDF: stats.CDF(res.etas, 200)}
	row.MedianEta, row.FracAboveThresh = res.etaStats()
	return row
}

// Fig06 sweeps the elastic fraction.
func Fig06(seed int64, quick bool) []Fig06Row {
	dur := 120 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	return mapCells(len(fracs), func(i int) Fig06Row {
		return RunFig06Point(fracs[i], seed, dur)
	})
}

// FormatFig06 renders the result.
func FormatFig06(rows []Fig06Row) string {
	var b strings.Builder
	b.WriteString("Fig 6: elasticity metric vs elastic fraction of cross traffic\n")
	fmt.Fprintf(&b, "%-16s %10s %18s\n", "elastic frac", "median eta", "frac eta>=2")
	for _, r := range rows {
		fmt.Fprintf(&b, "%15.0f%% %10.2f %18.2f\n", r.ElasticFraction*100, r.MedianEta, r.FracAboveThresh)
	}
	b.WriteString("expected shape: median eta ~1 at 0% rising monotonically; >=25% elastic mostly above threshold\n")
	return b.String()
}
