package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/metrics"
	"nimbus/internal/sim"
)

// Fig21Row holds the p95 flow-completion time of the cross flows by size
// bucket for one scheme (App. B, Fig. 21), normalized by Nimbus.
type Fig21Row struct {
	Scheme string
	// P95 seconds per bucket name.
	P95 map[string]float64
	// Normalized is P95 / Nimbus's P95 per bucket.
	Normalized map[string]float64
}

var fig21Buckets = []string{"15KB", "150KB", "1.5MB", "15MB", "150MB"}

// Fig21 measures cross-flow FCTs under each scheme using the Fig 9
// scenario.
func Fig21(seed int64, quick bool) []Fig21Row {
	dur := 150 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	schemes := []string{"nimbus", "bbr", "cubic", "vegas", "copa", "vivace"}
	rows := mapCells(len(schemes), func(i int) Fig21Row {
		r9 := RunFig09(schemes[i], seed, dur, 0.5)
		b := metrics.FCTBuckets(r9.CrossFCTs)
		p95 := map[string]float64{}
		for name, sum := range b {
			p95[name] = sum.P95
		}
		return Fig21Row{Scheme: schemes[i], P95: p95}
	})
	var nimbusP95 map[string]float64
	for _, r := range rows {
		if r.Scheme == "nimbus" {
			nimbusP95 = r.P95
		}
	}
	for i := range rows {
		rows[i].Normalized = map[string]float64{}
		for name, v := range rows[i].P95 {
			if base, ok := nimbusP95[name]; ok && base > 0 {
				rows[i].Normalized[name] = v / base
			}
		}
	}
	return rows
}

// FormatFig21 renders the table.
func FormatFig21(rows []Fig21Row) string {
	var b strings.Builder
	b.WriteString("Fig 21 (App B): p95 cross-flow FCT normalized to Nimbus, by flow size\n")
	fmt.Fprintf(&b, "%-8s", "scheme")
	for _, name := range fig21Buckets {
		fmt.Fprintf(&b, " %8s", name)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Scheme)
		for _, name := range fig21Buckets {
			if v, ok := r.Normalized[name]; ok {
				fmt.Fprintf(&b, " %8.2f", v)
			} else {
				fmt.Fprintf(&b, " %8s", "-")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("expected shape: bbr/vivace much worse than nimbus at all sizes; cubic worse for short flows; vegas best for cross flows\n")
	return b.String()
}
