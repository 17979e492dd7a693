package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/sim"
)

// Fig11Row is one scheme's (rate, delay) point against DASH video cross
// traffic (Fig. 11).
type Fig11Row struct {
	Scheme      string
	Video       string // "4k" or "1080p"
	MeanMbps    float64
	MeanDelayMs float64
	VideoMbps   float64
}

// RunFig11 runs one scheme against one video quality on a 48 Mbit/s,
// 50 ms link.
func RunFig11(scheme, video string, seed int64, dur sim.Time) Fig11Row {
	r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: seed})
	sch := MustScheme(scheme, r.MuBps)
	probe := r.AddFlow(sch, 50*sim.Millisecond, 0)
	v := r.crossVideo("", 50*sim.Millisecond, video == "4k")
	r.Sch.RunUntil(dur)
	return Fig11Row{
		Scheme:      scheme,
		Video:       video,
		MeanMbps:    probe.MeanMbps(5*sim.Second, dur),
		MeanDelayMs: probe.Delay.Summary().Mean,
		VideoMbps:   float64(v.Sender().DeliveredBytes) * 8 / dur.Seconds() / 1e6,
	}
}

// Fig11 runs all schemes against both video qualities.
func Fig11(seed int64, quick bool) []Fig11Row {
	dur := 120 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	type cell struct{ scheme, video string }
	var cells []cell
	for _, video := range []string{"4k", "1080p"} {
		for _, s := range SchemeNames {
			cells = append(cells, cell{s, video})
		}
	}
	return mapCells(len(cells), func(i int) Fig11Row {
		return RunFig11(cells[i].scheme, cells[i].video, seed, dur)
	})
}

// FormatFig11 renders the scatter as a table.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Fig 11: competition with DASH video cross traffic (48 Mbit/s, 50 ms)\n")
	fmt.Fprintf(&b, "%-6s %-10s %8s %10s %11s\n", "video", "scheme", "Mbit/s", "delay ms", "video Mbps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-10s %8.1f %10.1f %11.1f\n", r.Video, r.Scheme, r.MeanMbps, r.MeanDelayMs, r.VideoMbps)
	}
	b.WriteString("expected shape: 4k video is elastic (nimbus ~ cubic; vegas/copa near zero); 1080p inelastic (delay-controllers much lower delay at similar rate)\n")
	return b.String()
}
