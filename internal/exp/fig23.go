package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig23Row shows Copa vs Nimbus dynamics against CBR cross traffic at a
// low (25%) and high (83%) share (App. D.1): Copa misclassifies the
// high-share case as buffer-filling and keeps delays high; Nimbus stays
// in delay mode.
type Fig23Row struct {
	Scheme      string
	CBRMbps     float64
	MeanMbps    float64
	MeanDelayMs float64
	// WrongModeFrac: time fraction in competitive mode (truth:
	// inelastic, so any competitive time is wrong).
	WrongModeFrac float64
}

// wrongModeFrac is the scored fraction of time in the wrong mode, 0 for
// schemes without modes.
func (res *scoreResult) wrongModeFrac() float64 {
	if res.acc == nil {
		return 0
	}
	return 1 - res.acc.Accuracy()
}

// RunFig23Point runs one (scheme, cbr) cell on a 96 Mbit/s link.
func RunFig23Point(scheme string, cbrMbps float64, seed int64, dur sim.Time) Fig23Row {
	c := scoreCell{cross: []crossSpec{{kind: "cbr", rate: cbrMbps * 1e6, rtt: 40 * sim.Millisecond}}}
	res := c.run(spec.MustParse(scheme), seed, dur)
	return Fig23Row{
		Scheme: scheme, CBRMbps: cbrMbps,
		MeanMbps:      res.probe.MeanMbps(5*sim.Second, dur),
		MeanDelayMs:   res.probe.Delay.Summary().Mean,
		WrongModeFrac: res.wrongModeFrac(),
	}
}

// Fig23 runs the 2x2 grid.
func Fig23(seed int64, quick bool) []Fig23Row {
	dur := 60 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	type cell struct {
		scheme string
		cbr    float64
	}
	var cells []cell
	for _, cbr := range []float64{24, 80} {
		for _, s := range []string{"copa", "nimbus"} {
			cells = append(cells, cell{s, cbr})
		}
	}
	return mapCells(len(cells), func(i int) Fig23Row {
		return RunFig23Point(cells[i].scheme, cells[i].cbr, seed, dur)
	})
}

// FormatFig23 renders the grid.
func FormatFig23(rows []Fig23Row) string {
	var b strings.Builder
	b.WriteString("Fig 23 (App D.1): CBR cross traffic, 96 Mbit/s, 2 BDP\n")
	fmt.Fprintf(&b, "%-8s %6s %8s %10s %12s\n", "scheme", "CBR", "Mbit/s", "delay ms", "wrong-mode")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %4.0fM %8.1f %10.1f %12.2f\n", r.Scheme, r.CBRMbps, r.MeanMbps, r.MeanDelayMs, r.WrongModeFrac)
	}
	b.WriteString("expected shape: at 80M copa sticks in competitive mode (high delay); nimbus correct at both\n")
	return b.String()
}

// Fig24Row shows Copa vs Nimbus against an elastic NewReno flow with
// equal or 4x RTT (App. D.2): Copa misses the slow-growing high-RTT
// flow and underutilizes; Nimbus classifies it elastic.
type Fig24Row struct {
	Scheme        string
	RTTRatio      float64
	MeanMbps      float64
	WrongModeFrac float64 // truth: elastic
}

// RunFig24Point runs one cell.
func RunFig24Point(scheme string, ratio float64, seed int64, dur sim.Time) Fig24Row {
	crossRTT := sim.Time(float64(50*sim.Millisecond) * ratio)
	c := scoreCell{cross: []crossSpec{{kind: "reno", label: "reno", rtt: crossRTT}}, elastic: true}
	res := c.run(spec.MustParse(scheme), seed, dur)
	return Fig24Row{
		Scheme: scheme, RTTRatio: ratio,
		MeanMbps:      res.probe.MeanMbps(5*sim.Second, dur),
		WrongModeFrac: res.wrongModeFrac(),
	}
}

// Fig24 runs the 2x2 grid.
func Fig24(seed int64, quick bool) []Fig24Row {
	dur := 60 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	type cell struct {
		scheme string
		ratio  float64
	}
	var cells []cell
	for _, ratio := range []float64{1, 4} {
		for _, s := range []string{"copa", "nimbus"} {
			cells = append(cells, cell{s, ratio})
		}
	}
	return mapCells(len(cells), func(i int) Fig24Row {
		return RunFig24Point(cells[i].scheme, cells[i].ratio, seed, dur)
	})
}

// FormatFig24 renders the grid.
func FormatFig24(rows []Fig24Row) string {
	var b strings.Builder
	b.WriteString("Fig 24 (App D.2): one elastic NewReno cross flow, RTT ratio 1x / 4x\n")
	fmt.Fprintf(&b, "%-8s %6s %8s %12s\n", "scheme", "ratio", "Mbit/s", "wrong-mode")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %6.1f %8.1f %12.2f\n", r.Scheme, r.RTTRatio, r.MeanMbps, r.WrongModeFrac)
	}
	b.WriteString("expected shape: at 4x copa misclassifies (low share); nimbus stays competitive and keeps its share\n")
	return b.String()
}
