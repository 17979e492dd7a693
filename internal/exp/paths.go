package exp

import (
	"fmt"

	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// PathProfile is one emulated Internet path (the stand-in for the
// paper's 25 EC2-to-residential paths in §8.4). Profiles vary link rate,
// RTT, buffer depth, background traffic mix, and whether the path drops
// packets aggressively (a shallow buffer emulating a policer).
type PathProfile struct {
	Name      string
	RateMbps  float64
	RTT       sim.Time
	Buffer    sim.Time
	BgLoad    float64 // inelastic background as a fraction of the link
	BgElastic int     // number of intermittent elastic background flows
	Policer   bool    // shallow buffer => loss-limited path
	// Pattern, when non-empty, makes the path's capacity time-varying
	// (a netem.ParsePattern spec anchored at RateMbps), standing in for
	// the last-mile paths whose capacity fluctuates during a transfer.
	Pattern string
}

// Paths25 is the suite of 25 path profiles. The three named paths A/B/C
// mirror Fig. 18's examples: deep-buffer paths (A, B) and a lossy /
// policed path (C).
func Paths25() []PathProfile {
	var out []PathProfile
	// Three showcase paths.
	out = append(out,
		PathProfile{Name: "A-deep", RateMbps: 40, RTT: 80 * sim.Millisecond, Buffer: 200 * sim.Millisecond, BgLoad: 0.2},
		PathProfile{Name: "B-deep", RateMbps: 90, RTT: 60 * sim.Millisecond, Buffer: 150 * sim.Millisecond, BgLoad: 0.3},
		PathProfile{Name: "C-lossy", RateMbps: 30, RTT: 95 * sim.Millisecond, Buffer: 15 * sim.Millisecond, BgLoad: 0.1, Policer: true},
	)
	rates := []float64{20, 35, 50, 65, 80, 100}
	rtts := []sim.Time{25, 45, 70, 100, 120}
	i := 0
	for len(out) < 25 {
		rate := rates[i%len(rates)]
		rtt := rtts[i%len(rtts)] * sim.Millisecond
		buf := sim.Time(50+50*(i%4)) * sim.Millisecond
		p := PathProfile{
			Name:     fmt.Sprintf("p%02d", len(out)),
			RateMbps: rate,
			RTT:      rtt,
			Buffer:   buf,
			BgLoad:   0.1 + 0.1*float64(i%4),
		}
		if i%5 == 4 {
			p.Policer = true
			p.Buffer = 20 * sim.Millisecond
		}
		if i%3 == 1 {
			p.BgElastic = 1
		}
		// A subset of non-policed paths fluctuates: alternating cellular-like
		// ramps and Wi-Fi-like steps around the path's nominal rate.
		if i%4 == 2 && !p.Policer {
			if i%8 == 2 {
				p.Pattern = fmt.Sprintf("ramp:%g:%g:8000", 0.3*rate, rate)
			} else {
				p.Pattern = fmt.Sprintf("step:%g:%g:6000", 0.4*rate, rate)
			}
		}
		i++
		out = append(out, p)
	}
	return out
}

// runPath runs one scheme over one path profile and returns its mean
// throughput (Mbit/s) and mean RTT (ms) over the bulk transfer (the
// paper's methodology).
func runPath(p PathProfile, scheme string, seed int64, dur sim.Time) (mbps, rttMs float64) {
	cfg := NetConfig{RateMbps: p.RateMbps, RTT: p.RTT, Buffer: p.Buffer, Seed: seed}
	if p.Pattern != "" {
		sched, err := netem.ParsePattern(p.Pattern, p.RateMbps*1e6)
		if err != nil {
			panic("exp: path " + p.Name + ": " + err.Error())
		}
		cfg.Schedule = sched
	}
	// Real paths don't tell you µ: schemes that take a µ source use the
	// estimator, as the paper's implementation does.
	sp := spec.MustParse(scheme)
	if spec.HasParam(sp.Name, "mu") {
		sp = sp.With("mu", spec.Str("est"))
	}
	c := scoreCell{net: cfg, flows: []FlowSpec{{Scheme: sp}}}
	if p.BgLoad > 0 {
		c.cross = append(c.cross, crossSpec{kind: "poisson", rate: p.BgLoad * (p.RateMbps * 1e6), rtt: p.RTT / 2})
	}
	// Intermittent elastic background: Cubic flows for the middle third.
	c.cross = append(c.cross, cubicSpecs(p.BgElastic, dur/3, 2*dur/3)...)
	b := c.mustBuild()
	probe := b.Flows[0].Probe
	probe.RecordRTT()
	b.Rig.Sch.RunUntil(dur)
	rtt, _ := probe.RTTms.MeanQuantiles()
	return probe.MeanMbps(5*sim.Second, dur), rtt
}

// PathSchemes are the four schemes the paper runs on real paths.
var PathSchemes = []string{"nimbus", "cubic", "bbr", "vegas"}

// Fig18 runs the three showcase paths for all schemes.
func Fig18(seed int64, quick bool) Report {
	dur := 60 * sim.Second
	if quick {
		dur = 30 * sim.Second
	}
	paths := Paths25()[:3]
	return Report{
		Panels: []Table{{
			Title: "Fig 18: three example paths (A,B deep buffers; C lossy/policed)",
			Cols: []Col{
				{"path", "%-8s", "%-8s"},
				{"scheme", "%-8s", "%-8s"},
				{"Mbit/s", "%8s", "%8.1f"},
				{"mean RTT", "%10s", "%7.0f ms"},
			},
			Rows: grid([]int{len(paths), len(PathSchemes)}, func(ix []int) []any {
				p, scheme := paths[ix[0]], PathSchemes[ix[1]]
				mbps, rtt := runPath(p, scheme, seed, dur)
				return []any{p.Name, scheme, mbps, rtt}
			}),
		}},
		Expect: "on A/B nimbus ~ cubic/bbr rate at lower RTT; on C cubic suffers, nimbus keeps rate; vegas low rate everywhere elastic bg exists",
	}
}

// Fig19 summarizes the 25-path suite: each scheme's throughput and RTT,
// averaged over the paths with queueing (per the paper).
func Fig19(seed int64, quick bool) Report {
	dur := 60 * sim.Second
	paths := Paths25()
	if quick {
		dur = 20 * sim.Second
		paths = paths[:8]
	}
	var queued []PathProfile
	for _, p := range paths {
		if !p.Policer {
			queued = append(queued, p)
		}
	}
	// One cell per (scheme, path); average per scheme afterwards.
	runs := grid([]int{len(PathSchemes), len(queued)}, func(ix []int) [2]float64 {
		mbps, rtt := runPath(queued[ix[1]], PathSchemes[ix[0]], seed, dur)
		return [2]float64{mbps, rtt}
	})
	var rows [][]any
	for si, s := range PathSchemes {
		mbps, rtt := meanRuns(runs[si*len(queued) : (si+1)*len(queued)])
		rows = append(rows, []any{s, mbps, rtt})
	}
	return Report{
		Panels: []Table{{
			Title: "Fig 19: 25-path suite, paths with queueing",
			Cols: []Col{
				{"scheme", "%-8s", "%-8s"},
				{"mean Mbit/s", "%12s", "%12.1f"},
				{"mean RTT ms", "%12s", "%12.0f"},
			},
			Rows: rows,
		}},
		Expect: "nimbus ~ cubic rate, ~10% below bbr, at 40-50 ms lower RTT than cubic/bbr",
	}
}

// meanRuns averages runPath results held as {Mbit/s, RTT ms}.
func meanRuns(runs [][2]float64) (mbps, rttMs float64) {
	for _, r := range runs {
		mbps += r[0]
		rttMs += r[1]
	}
	n := float64(len(runs))
	return mbps / n, rttMs / n
}

// Fig20 is App. A: repeated runs of Cubic and the pure delay-control
// scheme on path A, N seeds each, with the background varied per run
// (the per-run variance stands in for diurnal variation). Inelastic
// cross traffic is common enough that delay control often wins on delay
// at equal throughput.
func Fig20(seed int64, quick bool) Report {
	n := 20
	dur := 60 * sim.Second
	if quick {
		n = 5
		dur = 20 * sim.Second
	}
	p := Paths25()[0]
	schemes := []string{"cubic", "nimbus-delay"}
	// Scheme-major, so each scheme's runs are contiguous.
	runs := grid([]int{len(schemes), n}, func(ix []int) [2]float64 {
		i := ix[1]
		s := seed + int64(i)*101
		// Vary the background load per run.
		pv := p
		pv.BgLoad = 0.1 + 0.6*sim.NewRand(s).Float64()
		pv.BgElastic = i % 2
		mbps, rtt := runPath(pv, schemes[ix[0]], s, dur)
		return [2]float64{mbps, rtt}
	})
	cubMbps, cubRTT := meanRuns(runs[:n])
	delMbps, delRTT := meanRuns(runs[n:])
	return Report{
		Panels: []Table{{
			Title: "Fig 20 (App A): loss-based vs delay-based over repeated runs",
			Cols: []Col{
				{"cubic Mbit/s", "", "cubic:        %.1f Mbit/s"},
				{"cubic RTT ms", "", " at %.0f ms mean RTT\n"},
				{"nimbus-delay Mbit/s", "", "nimbus-delay: %.1f Mbit/s"},
				{"nimbus-delay RTT ms", "", " at %.0f ms mean RTT\n"},
			},
			Rows: [][]any{{cubMbps, cubRTT, delMbps, delRTT}},
		}},
		Expect: "similar throughput, much lower delay for the delay-controller (inelastic cross traffic is common)",
	}
}
