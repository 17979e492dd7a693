package exp

import (
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

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

// Table1 reproduces Table 1: how the elasticity detector classifies each
// class of cross traffic.
func Table1(seed int64, quick bool) Report {
	dur := 90 * sim.Second
	if quick {
		dur = 40 * sim.Second
	}
	return table1Report(mapCells(len(table1Cases), func(i int) []any {
		tc := table1Cases[i]
		// Table 1 characterizes the *detector*, not the controller: the
		// measuring flow is pinned to one mode so the cross traffic's
		// operating point is stable, and the classification is the median
		// eta against the threshold. bbr-deep is measured from competitive
		// mode because BBR is ACK-clocked only once the standing queue
		// exceeds its rtprop (the paper's asterisk).
		//
		// The rate is the constant stream's; senders and video find their own.
		c := scoreCell{cross: []crossSpec{{kind: tc.kind, label: "cross", rate: 48e6}}}
		scheme := "nimbus-delay"
		switch tc.name {
		case "bbr-deep":
			scheme = "nimbus-competitive"
		case "bbr-shallow":
			c.net.Buffer = 25 * sim.Millisecond // 0.5 BDP, not the default 2
		}
		median, elastic := c.run(spec.MustParse(scheme), seed, dur).etaStats()
		classified := "Inelastic"
		if median >= 2 {
			classified = "Elastic"
		}
		return []any{tc.name, tc.paper, classified, elastic, median}
	}))
}

func table1Report(rows [][]any) Report {
	return Report{Panels: []Table{{
		Title: "Table 1: classification by the elasticity detector",
		Cols: []Col{
			{"cross traffic", "%-14s", "%-14s"},
			{"paper", "%12s", "%12s"},
			{"measured", "%12s", "%12s"},
			{"frac-elast", "%12s", "%12.2f"}, // fraction of decisions "elastic"
			{"med eta", "%8s", "%8.2f"},
		},
		Rows: rows,
	}}}
}
