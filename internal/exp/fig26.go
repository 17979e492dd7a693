package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Fig26Row is one pulse frequency's η distribution against a PCC-Vivace
// cross flow (App. F): at fp=5 Hz Vivace is too slow to follow the
// pulses (classified inelastic); at fp=2 Hz the longer pulses are slow
// enough for Vivace's monitor intervals to track (classified elastic).
type Fig26Row struct {
	PulseFreq   float64
	EtaCDF      []stats.CDFPoint
	MedianEta   float64
	FracElastic float64
}

// RunFig26Point runs one frequency.
func RunFig26Point(freq float64, seed int64, dur sim.Time) Fig26Row {
	c := scoreCell{cross: []crossSpec{{kind: "vivace", label: "vivace"}}}
	res := c.run(spec.MustParse("nimbus").With("fp", spec.Num(freq)), seed, dur)
	row := Fig26Row{PulseFreq: freq, EtaCDF: stats.CDF(res.etas, 200)}
	row.MedianEta, row.FracElastic = res.etaStats()
	return row
}

// Fig26 runs both frequencies.
func Fig26(seed int64, quick bool) []Fig26Row {
	dur := 120 * sim.Second
	if quick {
		dur = 50 * sim.Second
	}
	freqs := []float64{5, 2}
	return mapCells(len(freqs), func(i int) Fig26Row {
		return RunFig26Point(freqs[i], seed, dur)
	})
}

// FormatFig26 renders the result.
func FormatFig26(rows []Fig26Row) string {
	var b strings.Builder
	b.WriteString("Fig 26 (App F): detecting PCC-Vivace (rate-based, not ACK-clocked)\n")
	fmt.Fprintf(&b, "%6s %12s %14s\n", "fp Hz", "median eta", "frac elastic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.0f %12.2f %14.2f\n", r.PulseFreq, r.MedianEta, r.FracElastic)
	}
	b.WriteString("expected shape: mostly inelastic at 5 Hz; elastic at 2 Hz\n")
	return b.String()
}
