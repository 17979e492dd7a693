package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Table1Row is one row of Table 1: how the elasticity detector
// classifies a class of cross traffic.
type Table1Row struct {
	CrossTraffic string
	PaperSays    string // paper's expected classification
	MedianEta    float64
	FracElastic  float64 // fraction of decisions "elastic"
	Classified   string
}

// table1Cases enumerates the paper's Table 1, with BBR split by buffer
// depth (the paper's asterisk: BBR is elastic only when CWND-limited,
// i.e. with deep buffers).
var table1Cases = []struct {
	name  string
	paper string
	kind  string // the cross traffic's crossSpec kind
}{
	{"cubic", "Elastic", "cubic"},
	{"reno", "Elastic", "reno"},
	{"copa", "Elastic", "copa"},
	{"vegas", "Elastic", "vegas"},
	{"bbr-deep", "Elastic*", "bbr"},
	{"bbr-shallow", "Inelastic*", "bbr"},
	{"vivace", "Inelastic*", "vivace"},
	{"fixed-window", "Elastic", "fixedwindow(cwnd=160)"}, // ~48 Mbit/s at 50 ms
	{"app-limited", "Inelastic", "video1080p"},
	{"const-stream", "Inelastic", "cbr"},
}

// RunTable1Case measures the detector against one cross-traffic class.
func RunTable1Case(name string, seed int64, dur sim.Time) Table1Row {
	// Table 1 characterizes the *detector*, not the controller: the
	// measuring flow is pinned to one mode so the cross traffic's
	// operating point is stable, and the classification is the median
	// eta against the threshold. bbr-deep is measured from competitive
	// mode because BBR is ACK-clocked only once the standing queue
	// exceeds its rtprop (the paper's asterisk).
	var c scoreCell
	scheme := "nimbus-delay"
	switch name {
	case "bbr-deep":
		scheme = "nimbus-competitive"
	case "bbr-shallow":
		c.net.Buffer = 25 * sim.Millisecond // 0.5 BDP, not the default 2
	}
	for _, tc := range table1Cases {
		if tc.name == name {
			// The rate is the constant stream's; senders and video find their own.
			c.cross = []crossSpec{{kind: tc.kind, label: "cross", rate: 48e6}}
		}
	}
	if c.cross == nil {
		panic("exp: unknown table1 case " + name)
	}
	row := Table1Row{CrossTraffic: name, Classified: "Inelastic"}
	row.MedianEta, row.FracElastic = c.run(spec.MustParse(scheme), seed, dur).etaStats()
	if row.MedianEta >= 2 {
		row.Classified = "Elastic"
	}
	return row
}

// Table1 runs all rows.
func Table1(seed int64, quick bool) []Table1Row {
	dur := 90 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	return mapCells(len(table1Cases), func(i int) Table1Row {
		row := RunTable1Case(table1Cases[i].name, seed, dur)
		row.PaperSays = table1Cases[i].paper
		return row
	})
}

// FormatTable1 renders the table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: classification by the elasticity detector\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %8s\n", "cross traffic", "paper", "measured", "frac-elast", "med eta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %12s %12.2f %8.2f\n",
			r.CrossTraffic, r.PaperSays, r.Classified, r.FracElastic, r.MedianEta)
	}
	return b.String()
}
