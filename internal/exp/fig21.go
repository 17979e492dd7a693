package exp

import (
	"nimbus/internal/metrics"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

var fig21Buckets = []string{"15KB", "150KB", "1.5MB", "15MB", "150MB"}

// Fig21 reproduces App. B, Fig. 21: the p95 completion time of the Fig. 9
// cross flows under each scheme, by flow-size bucket, normalized by
// Nimbus's. A bucket no flow completed in, under the scheme or under
// Nimbus, prints "-".
func Fig21(seed int64, quick bool) Report {
	dur := 150 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	schemes := []string{"nimbus", "bbr", "cubic", "vegas", "copa", "vivace"}
	buckets := mapCells(len(schemes), func(i int) map[string]stats.Summary {
		_, fcts := runTrace(spec.MustParse(schemes[i]), seed, dur, 0.5)
		return metrics.FCTBuckets(fcts)
	})
	cols := []Col{{"scheme", "%-8s", "%-8s"}}
	for _, name := range fig21Buckets {
		cols = append(cols, Col{name, "%8s", "%8.2f"})
	}
	var rows [][]any
	for i, s := range schemes {
		row := []any{s}
		for _, name := range fig21Buckets {
			b, ok := buckets[i][name]
			if base := buckets[0][name].P95; ok && base > 0 {
				row = append(row, b.P95/base)
			} else {
				row = append(row, nil)
			}
		}
		rows = append(rows, row)
	}
	return Report{
		Panels: []Table{{
			Title: "Fig 21 (App B): p95 cross-flow FCT normalized to Nimbus, by flow size",
			Cols:  cols,
			Rows:  rows,
		}},
		Expect: "bbr/vivace much worse than nimbus at all sizes; cubic worse for short flows; vegas best for cross flows",
	}
}
