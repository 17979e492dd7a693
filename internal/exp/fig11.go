package exp

import (
	"nimbus/internal/crosstraffic"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// Fig11 reproduces Fig. 11: each scheme's (rate, delay) point against
// DASH video cross traffic of either quality on a 48 Mbit/s, 50 ms link.
func Fig11(seed int64, quick bool) Report {
	dur := 120 * sim.Second
	if quick {
		dur = 60 * sim.Second
	}
	videos := []string{"4k", "1080p"}
	return Report{
		Panels: []Table{{
			Title: "Fig 11: competition with DASH video cross traffic (48 Mbit/s, 50 ms)",
			Cols: []Col{
				{"video", "%-6s", "%-6s"},
				{"scheme", "%-10s", "%-10s"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"delay ms", "%10s", "%10.1f"},
				{"video Mbps", "%11s", "%11.1f"},
			},
			Rows: grid([]int{len(videos), len(SchemeNames)}, func(ix []int) []any {
				return runFig11(videos[ix[0]], SchemeNames[ix[1]], seed, dur)
			}),
		}},
		Expect: "4k video is elastic (nimbus ~ cubic; vegas/copa near zero); 1080p inelastic (delay-controllers much lower delay at similar rate)",
	}
}

// runFig11 runs one scheme against one video client ("4k" or "1080p")
// and returns its row.
func runFig11(video, scheme string, seed int64, dur sim.Time) []any {
	b := scoreCell{
		net:   NetConfig{RateMbps: 48, Seed: seed},
		flows: []FlowSpec{{Scheme: spec.MustParse(scheme)}},
		cross: []crossSpec{{kind: "video" + video}},
	}.mustBuild()
	b.Rig.Sch.RunUntil(dur)
	probe, v := b.Flows[0].Probe, b.cross[0].(*crosstraffic.VideoClient)
	delay, _ := probe.Delay.MeanQuantiles()
	return []any{
		video, scheme, probe.MeanMbps(5*sim.Second, dur), delay,
		float64(v.Sender().DeliveredBytes) * 8 / dur.Seconds() / 1e6,
	}
}
