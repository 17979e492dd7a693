package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig14LeftRow compares Nimbus's and Copa's classification accuracy
// against purely inelastic cross traffic occupying a varying share of
// the link (Fig. 14 left). The correct answer is always "inelastic"
// (delay mode / Copa default mode).
type Fig14LeftRow struct {
	Share     float64 // cross traffic share of the link
	Kind      string  // "cbr" or "poisson"
	NimbusAcc float64
	CopaAcc   float64
}

// RunFig14Left runs one share point under both schemes; kind is "cbr" or
// "poisson".
func RunFig14Left(share float64, kind string, seed int64, dur sim.Time) Fig14LeftRow {
	c := scoreCell{cross: []crossSpec{{kind: kind, rate: share * 96e6, rtt: 40 * sim.Millisecond}}}
	return Fig14LeftRow{
		Share: share, Kind: kind,
		NimbusAcc: c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy(),
		CopaAcc:   c.run(spec.MustParse("copa"), seed, dur).acc.Accuracy(),
	}
}

// Fig14RightRow compares accuracy against one elastic NewReno cross flow
// whose RTT is a multiple of the probe flow's (Fig. 14 right). The
// correct answer is always "elastic".
type Fig14RightRow struct {
	RTTRatio  float64
	NimbusAcc float64
	CopaAcc   float64
}

// RunFig14Right runs one RTT-ratio point under both schemes.
func RunFig14Right(ratio float64, seed int64, dur sim.Time) Fig14RightRow {
	crossRTT := sim.Time(float64(50*sim.Millisecond) * ratio)
	c := scoreCell{cross: []crossSpec{{kind: "reno", label: "reno", rtt: crossRTT}}, elastic: true}
	return Fig14RightRow{
		RTTRatio:  ratio,
		NimbusAcc: c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy(),
		CopaAcc:   c.run(spec.MustParse("copa"), seed, dur).acc.Accuracy(),
	}
}

// Fig14Result bundles both panels.
type Fig14Result struct {
	Left  []Fig14LeftRow
	Right []Fig14RightRow
}

// Fig14 runs both sweeps.
func Fig14(seed int64, quick bool) Fig14Result {
	dur := 120 * sim.Second
	shares := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	ratios := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4}
	if quick {
		dur = 45 * sim.Second
		shares = []float64{0.3, 0.5, 0.7, 0.9}
		ratios = []float64{1, 2, 4}
	}
	type cell struct {
		share float64
		kind  string
	}
	var cells []cell
	for _, s := range shares {
		for _, kind := range []string{"cbr", "poisson"} {
			cells = append(cells, cell{s, kind})
		}
	}
	var res Fig14Result
	res.Left = mapCells(len(cells), func(i int) Fig14LeftRow {
		return RunFig14Left(cells[i].share, cells[i].kind, seed, dur)
	})
	res.Right = mapCells(len(ratios), func(i int) Fig14RightRow {
		return RunFig14Right(ratios[i], seed, dur)
	})
	return res
}

// FormatFig14 renders both panels.
func FormatFig14(r Fig14Result) string {
	var b strings.Builder
	b.WriteString("Fig 14 (left): accuracy vs inelastic cross-traffic share\n")
	fmt.Fprintf(&b, "%6s %-8s %8s %8s\n", "share", "kind", "nimbus", "copa")
	for _, row := range r.Left {
		fmt.Fprintf(&b, "%5.0f%% %-8s %8.2f %8.2f\n", row.Share*100, row.Kind, row.NimbusAcc, row.CopaAcc)
	}
	b.WriteString("Fig 14 (right): accuracy vs elastic cross-flow RTT ratio\n")
	fmt.Fprintf(&b, "%6s %8s %8s\n", "ratio", "nimbus", "copa")
	for _, row := range r.Right {
		fmt.Fprintf(&b, "%6.1f %8.2f %8.2f\n", row.RTTRatio, row.NimbusAcc, row.CopaAcc)
	}
	b.WriteString("expected shape: copa collapses above ~80% share and degrades with RTT ratio; nimbus stays high\n")
	return b.String()
}
