package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/metrics"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Fig09Row is one scheme's performance against the WAN trace workload
// (Fig. 9): CDFs of per-second rate and per-packet RTT, plus the cross
// flows' completion times (reused by Fig. 21).
type Fig09Row struct {
	Scheme      string
	RateCDF     []stats.CDFPoint
	RTTCDF      []stats.CDFPoint
	MeanMbps    float64
	MedianRTTms float64
	P95RTTms    float64
	CrossFCTs   []metrics.FCTRecord
	// For Fig 10: the 1-second throughput series.
	TputSeries []float64
}

// RunFig09 runs one scheme against the heavy-tailed trace workload at
// the given offered load on a 96 Mbit/s, 50 ms, 100 ms-buffer link.
func RunFig09(scheme string, seed int64, dur sim.Time, loadFrac float64) Fig09Row {
	return runFig09Spec(spec.MustParse(scheme), seed, dur, loadFrac)
}

func runFig09Spec(sp spec.Spec, seed int64, dur sim.Time, loadFrac float64) Fig09Row {
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	sch := MustBuildScheme(sp, r.MuBps)
	probe := r.AddFlow(sch, 50*sim.Millisecond, 0)
	row := Fig09Row{Scheme: sp.String()}
	w := r.crossTrace("", 50*sim.Millisecond, loadFrac*r.MuBps)
	w.OnComplete = func(size int, fct sim.Time) {
		row.CrossFCTs = append(row.CrossFCTs, metrics.FCTRecord{SizeBytes: size, FCT: fct})
	}
	r.Sch.RunUntil(dur)

	row.MeanMbps = probe.MeanMbps(5*sim.Second, dur)
	rates := probe.Tput.SeriesMbps()
	if len(rates) > 5 {
		rates = rates[5:] // warmup
	}
	row.RateCDF = stats.CDF(rates, 100)
	rtts := probe.RTTms.Samples()
	row.RTTCDF = stats.CDF(rtts, 100)
	rttQs := stats.Percentiles(rtts, 0.5, 0.95) // one sort for both quantiles
	row.MedianRTTms, row.P95RTTms = rttQs[0], rttQs[1]
	row.TputSeries = probe.Tput.SeriesMbps()
	return row
}

// Fig09 runs the six schemes of the figure.
func Fig09(seed int64, quick bool) []Fig09Row {
	dur := 120 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	return mapCells(len(SchemeNames), func(i int) Fig09Row {
		return RunFig09(SchemeNames[i], seed, dur, 0.5)
	})
}

// FormatFig09 renders the comparison.
func FormatFig09(rows []Fig09Row) string {
	var b strings.Builder
	b.WriteString("Fig 9: WAN (heavy-tailed trace) cross traffic at 50% load, 96 Mbit/s\n")
	fmt.Fprintf(&b, "%-10s %8s %12s %10s\n", "scheme", "Mbit/s", "median RTT", "p95 RTT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.1f %9.0f ms %7.0f ms\n", r.Scheme, r.MeanMbps, r.MedianRTTms, r.P95RTTms)
	}
	b.WriteString("expected shape: nimbus ~ cubic/bbr rate with much lower median RTT; vegas/copa lower rate\n")
	return b.String()
}

// Fig10Result compares Nimbus and Copa throughput over time against the
// trace workload (Fig. 10: Copa's throughput collapses during elastic
// periods).
type Fig10Result struct {
	NimbusSeries []float64
	CopaSeries   []float64
	// P20Nimbus / P20Copa: 20th percentile of the 1 s rates — the
	// paper's observation is Copa's low tail.
	P20Nimbus float64
	P20Copa   float64
}

// Fig10 derives the comparison from two Fig 9 runs.
func Fig10(seed int64, quick bool) Fig10Result {
	dur := 120 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	rows := mapCells(2, func(i int) Fig09Row {
		return RunFig09([]string{"nimbus", "copa"}[i], seed, dur, 0.5)
	})
	n, c := rows[0], rows[1]
	res := Fig10Result{NimbusSeries: n.TputSeries, CopaSeries: c.TputSeries}
	trim := func(xs []float64) []float64 {
		if len(xs) > 5 {
			return xs[5:]
		}
		return xs
	}
	res.P20Nimbus = stats.Percentile(trim(n.TputSeries), 0.2)
	res.P20Copa = stats.Percentile(trim(c.TputSeries), 0.2)
	return res
}

// FormatFig10 renders the result.
func FormatFig10(r Fig10Result) string {
	var b strings.Builder
	b.WriteString("Fig 10: Copa vs Nimbus against trace cross traffic\n")
	fmt.Fprintf(&b, "p20 of 1s throughput: nimbus %.1f Mbit/s, copa %.1f Mbit/s\n", r.P20Nimbus, r.P20Copa)
	b.WriteString("expected shape: copa's low-percentile throughput below nimbus (drops vs elastic flows)\n")
	return b.String()
}
