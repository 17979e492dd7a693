package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig22Row compares Nimbus's and Cubic's throughput when competing with
// one BBR flow, across buffer sizes (App. C, Fig. 22). The claim: Nimbus
// does no worse than Cubic against BBR regardless of buffer depth, even
// though the detector classifies BBR differently by buffer size
// (inelastic when shallow, elastic when deep).
type Fig22Row struct {
	BufferBDP  float64
	NimbusMbps float64
	CubicMbps  float64
	// NimbusCompetitiveFrac: how the detector classified BBR.
	NimbusCompetitiveFrac float64
}

// RunFig22Point runs both schemes against BBR at one buffer depth.
func RunFig22Point(bufBDP float64, seed int64, dur sim.Time) Fig22Row {
	c := scoreCell{
		net:     NetConfig{Buffer: sim.Time(bufBDP * float64(50*sim.Millisecond))},
		cross:   []crossSpec{{kind: "bbr", label: "bbr"}},
		elastic: true, // so accuracy == competitive fraction
	}
	nim := c.run(spec.MustParse("nimbus"), seed, dur)
	cub := c.run(spec.MustParse("cubic"), seed, dur)
	return Fig22Row{
		BufferBDP:             bufBDP,
		NimbusMbps:            nim.probe.MeanMbps(5*sim.Second, dur),
		CubicMbps:             cub.probe.MeanMbps(5*sim.Second, dur),
		NimbusCompetitiveFrac: nim.acc.Accuracy(),
	}
}

// Fig22 sweeps buffer sizes 0.5-4 BDP.
func Fig22(seed int64, quick bool) []Fig22Row {
	dur := 120 * sim.Second
	bufs := []float64{0.5, 1, 2, 4}
	if quick {
		dur = 45 * sim.Second
		bufs = []float64{0.5, 2}
	}
	return mapCells(len(bufs), func(i int) Fig22Row {
		return RunFig22Point(bufs[i], seed, dur)
	})
}

// FormatFig22 renders the sweep.
func FormatFig22(rows []Fig22Row) string {
	var b strings.Builder
	b.WriteString("Fig 22 (App C): competing with one BBR flow on 96 Mbit/s\n")
	fmt.Fprintf(&b, "%10s %12s %12s %18s\n", "buffer BDP", "nimbus Mbps", "cubic Mbps", "nimbus comp. frac")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.1f %12.1f %12.1f %18.2f\n", r.BufferBDP, r.NimbusMbps, r.CubicMbps, r.NimbusCompetitiveFrac)
	}
	b.WriteString("expected shape: nimbus ~ cubic at every buffer; BBR classified elastic only with deep buffers\n")
	return b.String()
}
