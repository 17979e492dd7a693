package exp

import (
	"fmt"
	"sort"
	"strings"

	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
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
}{
	{"cubic", "Elastic"},
	{"reno", "Elastic"},
	{"copa", "Elastic"},
	{"vegas", "Elastic"},
	{"bbr-deep", "Elastic*"},
	{"bbr-shallow", "Inelastic*"},
	{"vivace", "Inelastic*"},
	{"fixed-window", "Elastic"},
	{"app-limited", "Inelastic"},
	{"const-stream", "Inelastic"},
}

// RunTable1Case measures the detector against one cross-traffic class.
func RunTable1Case(name string, seed int64, dur sim.Time) Table1Row {
	buf := 100 * sim.Millisecond // 2 BDP default
	if name == "bbr-shallow" {
		buf = 25 * sim.Millisecond // 0.5 BDP
	}
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: buf, Seed: seed})
	// Table 1 characterizes the *detector*, not the controller: the
	// measuring flow is pinned to one mode so the cross traffic's
	// operating point is stable, and the classification is the median
	// eta against the threshold. bbr-deep is measured from competitive
	// mode because BBR is ACK-clocked only once the standing queue
	// exceeds its rtprop (the paper's asterisk).
	scheme := "nimbus-delay"
	if name == "bbr-deep" {
		scheme = "nimbus-competitive"
	}
	n := MustScheme(scheme, r.MuBps)
	r.AddFlow(n, 50*sim.Millisecond, 0)

	rtt := 50 * sim.Millisecond
	startSender := func(ctrl transport.Controller) {
		s := transport.NewSender(r.Net, rtt, ctrl, transport.Backlogged{}, r.Rng.Split("cross"))
		s.Start(0)
	}
	switch name {
	case "cubic":
		startSender(cc.NewCubic())
	case "reno":
		startSender(cc.NewReno())
	case "copa":
		startSender(cc.NewCopa())
	case "vegas":
		startSender(cc.NewVegas())
	case "bbr-deep", "bbr-shallow":
		startSender(cc.NewBBR())
	case "vivace":
		startSender(cc.NewVivace())
	case "fixed-window":
		startSender(cc.NewFixedWindow(160)) // ~48 Mbit/s at 50 ms
	case "app-limited":
		v := &crosstraffic.VideoClient{
			Net: r.Net, Rng: r.Rng.Split("video"), RTT: rtt,
			Ladder: crosstraffic.Ladder1080p,
			NewCC:  func() transport.Controller { return cc.NewCubic() },
		}
		v.Start(0)
	case "const-stream":
		newCBR(r, rtt, 48e6).Start(0)
	default:
		panic("exp: unknown table1 case " + name)
	}

	var etas []float64
	elastic := 0
	fp := 5.0
	n.Nimbus.OnTick = func(t core.Telemetry) {
		if t.Now > 10*sim.Second && n.Nimbus.Detector().Ready() {
			eta := n.Nimbus.Detector().Elasticity(fp)
			etas = append(etas, eta)
			if eta >= n.Nimbus.Detector().Threshold() {
				elastic++
			}
		}
	}
	r.Sch.RunUntil(dur)

	row := Table1Row{CrossTraffic: name}
	if len(etas) > 0 {
		row.MedianEta = median(etas)
		row.FracElastic = float64(elastic) / float64(len(etas))
	}
	row.Classified = "Inelastic"
	if row.MedianEta >= 2 {
		row.Classified = "Elastic"
	}
	return row
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
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
