package exp

import (
	"fmt"
	"strings"

	"nimbus/internal/netem"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
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

// PathRow is one (path, scheme) measurement: mean throughput and mean
// RTT over a one-minute bulk transfer (the paper's methodology).
type PathRow struct {
	Path      string
	Scheme    string
	MeanMbps  float64
	MeanRTTms float64
	Policer   bool
}

// RunPath runs one scheme over one path profile.
func RunPath(p PathProfile, scheme string, seed int64, dur sim.Time) PathRow {
	cfg := NetConfig{RateMbps: p.RateMbps, RTT: p.RTT, Buffer: p.Buffer, Seed: seed}
	if p.Pattern != "" {
		sched, err := netem.ParsePattern(p.Pattern, p.RateMbps*1e6)
		if err != nil {
			panic("exp: path " + p.Name + ": " + err.Error())
		}
		cfg.Schedule = sched
	}
	r := NewRig(cfg)
	// Real paths don't tell you µ: schemes that take a µ source use the
	// estimator, as the paper's implementation does.
	sp := spec.MustParse(scheme)
	if spec.HasParam(sp.Name, "mu") {
		sp = sp.With("mu", spec.Str("est"))
	}
	sch := MustBuildScheme(sp, r.MuBps)
	probe := r.AddFlow(sch, p.RTT, 0)
	if p.BgLoad > 0 {
		r.crossPoisson("", p.RTT/2, p.BgLoad*r.MuBps, 0)
	}
	// Intermittent elastic background: a Cubic flow for the middle third.
	if p.BgElastic > 0 {
		r.cubicCross(p.BgElastic, p.RTT, dur/3, 2*dur/3)
	}
	r.Sch.RunUntil(dur)
	return PathRow{
		Path:      p.Name,
		Scheme:    scheme,
		MeanMbps:  probe.MeanMbps(5*sim.Second, dur),
		MeanRTTms: probe.RTTms.Summary().Mean,
		Policer:   p.Policer,
	}
}

// PathSchemes are the four schemes the paper runs on real paths.
var PathSchemes = []string{"nimbus", "cubic", "bbr", "vegas"}

// Fig18 runs the three showcase paths for all schemes.
func Fig18(seed int64, quick bool) []PathRow {
	dur := 60 * sim.Second
	if quick {
		dur = 30 * sim.Second
	}
	type cell struct {
		path   PathProfile
		scheme string
	}
	var cells []cell
	for _, p := range Paths25()[:3] {
		for _, s := range PathSchemes {
			cells = append(cells, cell{p, s})
		}
	}
	return mapCells(len(cells), func(i int) PathRow {
		return RunPath(cells[i].path, cells[i].scheme, seed, dur)
	})
}

// FormatFig18 renders the three example paths.
func FormatFig18(rows []PathRow) string {
	var b strings.Builder
	b.WriteString("Fig 18: three example paths (A,B deep buffers; C lossy/policed)\n")
	fmt.Fprintf(&b, "%-8s %-8s %8s %10s\n", "path", "scheme", "Mbit/s", "mean RTT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %8.1f %7.0f ms\n", r.Path, r.Scheme, r.MeanMbps, r.MeanRTTms)
	}
	b.WriteString("expected shape: on A/B nimbus ~ cubic/bbr rate at lower RTT; on C cubic suffers, nimbus keeps rate; vegas low rate everywhere elastic bg exists\n")
	return b.String()
}

// Fig19Result summarizes the full 25-path suite: CDFs across paths of
// each scheme's throughput and RTT (paths with queueing only, per the
// paper).
type Fig19Result struct {
	Scheme              string
	TputCDF             []stats.CDFPoint
	RTTCDF              []stats.CDFPoint
	MeanMbps, MeanRTTms float64
}

// Fig19 runs the suite.
func Fig19(seed int64, quick bool) []Fig19Result {
	dur := 60 * sim.Second
	paths := Paths25()
	if quick {
		dur = 20 * sim.Second
		paths = paths[:8]
	}
	// "paths with queueing" per Fig 19
	var queued []PathProfile
	for _, p := range paths {
		if !p.Policer {
			queued = append(queued, p)
		}
	}
	// One cell per (scheme, path); aggregate per scheme afterwards.
	rows := mapCells(len(PathSchemes)*len(queued), func(i int) PathRow {
		return RunPath(queued[i%len(queued)], PathSchemes[i/len(queued)], seed, dur)
	})
	var out []Fig19Result
	for si, s := range PathSchemes {
		var tputs, rtts []float64
		var tputSum, rttSum float64
		for pi, p := range queued {
			row := rows[si*len(queued)+pi]
			// Normalize throughput by the path rate so different paths
			// are comparable in one CDF.
			tputs = append(tputs, row.MeanMbps/p.RateMbps)
			rtts = append(rtts, row.MeanRTTms)
			tputSum += row.MeanMbps
			rttSum += row.MeanRTTms
		}
		out = append(out, Fig19Result{
			Scheme:    s,
			TputCDF:   stats.CDF(tputs, 0),
			RTTCDF:    stats.CDF(rtts, 0),
			MeanMbps:  tputSum / float64(len(queued)),
			MeanRTTms: rttSum / float64(len(queued)),
		})
	}
	return out
}

// FormatFig19 renders the summary.
func FormatFig19(rows []Fig19Result) string {
	var b strings.Builder
	b.WriteString("Fig 19: 25-path suite, paths with queueing\n")
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "scheme", "mean Mbit/s", "mean RTT ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.1f %12.0f\n", r.Scheme, r.MeanMbps, r.MeanRTTms)
	}
	b.WriteString("expected shape: nimbus ~ cubic rate, ~10% below bbr, at 40-50 ms lower RTT than cubic/bbr\n")
	return b.String()
}

// Fig20Result is App. A: repeated runs of Cubic vs the pure
// delay-control scheme on one path, showing inelastic cross traffic is
// common enough that delay control often wins on delay at equal
// throughput.
type Fig20Result struct {
	Runs []PathRow // alternating cubic / nimbus-delay
}

// Fig20 runs N seeds of each scheme on path A with time-varying
// background (the per-run variance stands in for diurnal variation).
func Fig20(seed int64, quick bool) Fig20Result {
	n := 20
	dur := 60 * sim.Second
	if quick {
		n = 5
		dur = 20 * sim.Second
	}
	p := Paths25()[0]
	var res Fig20Result
	res.Runs = mapCells(2*n, func(j int) PathRow {
		i := j / 2
		s := seed + int64(i)*101
		// Vary the background load per run.
		pv := p
		pv.BgLoad = 0.1 + 0.6*sim.NewRand(s).Float64()
		pv.BgElastic = i % 2
		scheme := "cubic"
		if j%2 == 1 {
			scheme = "nimbus-delay"
		}
		return RunPath(pv, scheme, s, dur)
	})
	return res
}

// FormatFig20 renders the scatter summary.
func FormatFig20(r Fig20Result) string {
	var cub, del struct {
		tput, rtt float64
		n         int
	}
	for _, row := range r.Runs {
		if row.Scheme == "cubic" {
			cub.tput += row.MeanMbps
			cub.rtt += row.MeanRTTms
			cub.n++
		} else {
			del.tput += row.MeanMbps
			del.rtt += row.MeanRTTms
			del.n++
		}
	}
	var b strings.Builder
	b.WriteString("Fig 20 (App A): loss-based vs delay-based over repeated runs\n")
	if cub.n > 0 && del.n > 0 {
		fmt.Fprintf(&b, "cubic:        %.1f Mbit/s at %.0f ms mean RTT\n", cub.tput/float64(cub.n), cub.rtt/float64(cub.n))
		fmt.Fprintf(&b, "nimbus-delay: %.1f Mbit/s at %.0f ms mean RTT\n", del.tput/float64(del.n), del.rtt/float64(del.n))
	}
	b.WriteString("expected shape: similar throughput, much lower delay for the delay-controller (inelastic cross traffic is common)\n")
	return b.String()
}
