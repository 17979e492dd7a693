// Command elasticity is the offline measurement/diagnostic use of the
// elasticity detector (§1): feed it a cross-traffic rate time series (one
// value per line, or CSV "t,rate") sampled at a fixed interval, and it
// reports the elasticity metric η and the classification. Several pulse
// frequencies can be tested at once; they are analyzed in parallel on
// -workers cores.
//
// Instead of stdin, -link-trace resamples a capacity trace (an embedded
// netem trace name or a time_ms,mbps file) at -interval and analyzes
// that — a quick check of whether a path's rate variation itself looks
// elastic to the detector. -topology does the same for a topology spec's
// bottleneck link: "elasticity -topology 'bn(48mbps,pattern=step:6:24:2000)'"
// analyzes the bottleneck hop's scheduled capacity signal (the spec's
// bottleneck needs an absolute rate, since there is no scenario to
// inherit one from). -churn simulates a session-arrival workload
// (internal/workload) on the standard bottleneck and analyzes its
// aggregate delivered rate — what churning Internet traffic actually
// looks like to the detector. -fluid does the same for a fluid-model
// aggregate (internal/crosstraffic.Fluid): "elasticity -fluid cubic:24"
// simulates the rate process alone on the standard bottleneck and
// analyzes its delivered rate, a direct check that the fluid
// approximation still shows the detector the signature the per-packet
// source would (elastic aggregates self-congest into a sawtooth).
//
// The -list flag every CLI in this repo shares is available here too:
// "-list traces" (embedded capacity traces for -link-trace), "-list
// topologies" (topology presets for -topology), "-list schemes" (the
// scheme registry), "-list experiments" (paper experiment ids, runnable
// with nimbus-bench -run), or several at once, comma-separated.
//
// Usage:
//
//	elasticity -fp 5 -interval 10ms < zseries.csv
//	elasticity -fp 5,2,1 -workers 4 < zseries.csv
//	elasticity -fp 5 -link-trace cell-ramp -trace-dur 60s
//	elasticity -fp 5 -topology 'access(100mbps,5ms)->bn(48mbps,pattern=ramp:12:48:8000)'
//	elasticity -fp 5 -churn "bulk(load=24)" -trace-dur 60s
//	elasticity -fp 5 -fluid cubic:24 -trace-dur 60s
//	elasticity -list traces
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/exp"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

func main() {
	var (
		fps      = flag.String("fp", "5", "pulse frequencies to test, Hz, comma-separated")
		interval = flag.Duration("interval", 10*time.Millisecond, "sample interval of the input series")
		window   = flag.Duration("window", 5*time.Second, "FFT window")
		thresh   = flag.Float64("threshold", 2, "elasticity threshold")
		workers  = flag.Int("workers", 0, "parallel analyses (0 = all cores)")
		trace    = flag.String("link-trace", "", "analyze a capacity trace (embedded name or time_ms,mbps file) instead of stdin")
		topo     = flag.String("topology", "", "analyze a topology spec's bottleneck-link capacity signal instead of stdin (the bottleneck needs an absolute rate)")
		churn    = flag.String("churn", "", "analyze the aggregate delivered rate of a simulated session workload (a workload spec like bulk(load=24)) instead of stdin")
		fluid    = flag.String("fluid", "", "analyze the delivered rate of a fluid-model aggregate (kind[:rateMbps], e.g. cubic:24) on the standard bottleneck instead of stdin")
		traceDur = flag.Duration("trace-dur", 60*time.Second, "how much signal to generate with -link-trace/-topology/-churn")

		list = flag.String("list", "", exp.ListUsage)
	)
	flag.Parse()
	if exp.HandleListFlag(*list) {
		return
	}

	freqs := parseFreqs(*fps)
	cfg := core.DetectorConfig{
		SampleInterval: sim.FromDuration(*interval),
		FFTDuration:    sim.FromDuration(*window),
		Threshold:      *thresh,
	}

	sources := 0
	for _, s := range []string{*trace, *topo, *churn, *fluid} {
		if s != "" {
			sources++
		}
	}
	var samples []float64
	var err error
	switch {
	case sources > 1:
		fmt.Fprintln(os.Stderr, "pick one of -link-trace, -topology, -churn and -fluid")
		os.Exit(2)
	case *trace != "":
		samples, err = traceSamples(*trace, cfg.SampleInterval, sim.FromDuration(*traceDur))
	case *topo != "":
		samples, err = topoSamples(*topo, cfg.SampleInterval, sim.FromDuration(*traceDur))
	case *churn != "":
		samples, err = churnSamples(*churn, cfg.SampleInterval, sim.FromDuration(*traceDur))
	case *fluid != "":
		samples, err = fluidSamples(*fluid, cfg.SampleInterval, sim.FromDuration(*traceDur))
	default:
		samples, err = readSamples(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	need := core.NewDetector(cfg).WindowSamples()
	if len(samples) < need {
		fmt.Fprintf(os.Stderr, "need %d samples for a full window, got %d\n", need, len(samples))
		os.Exit(1)
	}

	// Each frequency gets its own detector (the analysis reuses scratch
	// buffers internally), fed the same series; the analyses run in
	// parallel and report in input order.
	type verdict struct {
		fp, eta float64
		every   []float64 // eta per full window, in series order
	}
	out := runner.Map(*workers, len(freqs), func(i int) verdict {
		det := core.NewDetector(cfg)
		v := verdict{fp: freqs[i]}
		for n, s := range samples {
			det.AddSample(s)
			if det.Ready() && (n+1)%det.WindowSamples() == 0 {
				v.every = append(v.every, det.Elasticity(freqs[i]))
			}
		}
		v.eta = det.Elasticity(freqs[i])
		return v
	})

	for _, v := range out {
		for _, eta := range v.every {
			report(v.fp, eta, *thresh)
		}
		report(v.fp, v.eta, *thresh)
	}
}

func report(fp, eta, thresh float64) {
	class := "INELASTIC"
	if eta >= thresh {
		class = "ELASTIC"
	}
	fmt.Printf("eta(fp=%.1fHz) = %.3f  threshold = %.1f  =>  %s\n", fp, eta, thresh, class)
}

// traceSamples resamples a rate schedule at the detector's interval.
func traceSamples(nameOrPath string, interval, dur sim.Time) ([]float64, error) {
	s, err := netem.LoadTrace(nameOrPath)
	if err != nil {
		return nil, err
	}
	var out []float64
	for t := sim.Time(0); t < dur; t += interval {
		out = append(out, s.RateAt(t))
	}
	return out, nil
}

// topoSamples resamples a topology spec's bottleneck-link capacity
// schedule (its pattern anchored at its absolute rate, or the constant
// rate) at the detector's interval.
func topoSamples(topoSpec string, interval, dur sim.Time) ([]float64, error) {
	ts, err := netem.ParseTopology(topoSpec)
	if err != nil {
		return nil, err
	}
	// There is no scenario here, so resolve the bottleneck at a zero
	// nominal rate: all-absolute chains order correctly (the slowest
	// link wins), and any scale- or inherit-rate link resolves to 0,
	// gets picked, and lands in the no-absolute-rate error below.
	bn := ts.LinkByName(ts.BottleneckAt(0))
	if bn.RateMbps <= 0 {
		return nil, fmt.Errorf("topology %q: bottleneck link %q has no absolute rate to analyze; give one, e.g. %s(48mbps)",
			topoSpec, bn.Name, bn.Name)
	}
	sched := netem.ConstantRate(bn.RateMbps * 1e6)
	if bn.Pattern != "" {
		sched, err = netem.ParsePattern(bn.Pattern, bn.RateMbps*1e6)
		if err != nil {
			return nil, err
		}
	}
	var out []float64
	for t := sim.Time(0); t < dur; t += interval {
		out = append(out, sched.RateAt(t))
	}
	return out, nil
}

// churnSamples simulates a session workload (internal/workload) alone on
// the standard 96 Mbit/s bottleneck and samples its aggregate delivered
// rate at the detector's interval — the measurement use of the detector
// against realistic churning traffic rather than a synthetic series.
func churnSamples(churnSpec string, interval, dur sim.Time) ([]float64, error) {
	wsp, err := workload.ParseSpec(churnSpec)
	if err != nil {
		return nil, err
	}
	r := exp.NewRig(exp.NetConfig{
		RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond,
		Seed: 1,
	})
	var bytes float64
	gen := &workload.Generator{
		Net: r.Net, Rng: r.Rng.Split("churn"), Spec: wsp,
		RTT: 50 * sim.Millisecond, MuBps: r.MuBps,
		OnDeliver: func(p *netem.Packet, now sim.Time) { bytes += float64(p.Size) },
	}
	if err := gen.Start(0); err != nil {
		return nil, err
	}
	var out []float64
	var sample func()
	sample = func() {
		out = append(out, bytes*8/interval.Seconds())
		bytes = 0
		if r.Sch.Now()+interval <= dur {
			r.Sch.AfterFunc(interval, sample)
		}
	}
	r.Sch.AfterFunc(interval, sample)
	r.Sch.RunUntil(dur)
	return out, nil
}

// fluidSamples simulates a fluid-model aggregate (crosstraffic.Fluid)
// alone on the standard 96 Mbit/s bottleneck and samples its delivered
// rate at the detector's interval — the fluid counterpart of -churn,
// checking the rate-process approximation shows the detector the same
// elastic/inelastic signature as the packet source it replaces. The
// spec is kind[:rateMbps]; an elastic kind (cubic, reno) defaults to
// no target rate and grows until it self-congests.
func fluidSamples(spec string, interval, dur sim.Time) ([]float64, error) {
	kind, rateMbps := spec, 0.0
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind = spec[:i]
		v, err := strconv.ParseFloat(spec[i+1:], 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-fluid: bad rate in %q (want kind[:rateMbps], e.g. cubic:24)", spec)
		}
		rateMbps = v
	}
	const rtt = 50 * sim.Millisecond
	r := exp.NewRig(exp.NetConfig{
		RateMbps: 96, RTT: rtt, Buffer: 100 * sim.Millisecond,
		Seed: 1, Fluid: "on",
	})
	fsp, _ := crosstraffic.ParseFluidSpec("on")
	src, err := crosstraffic.NewFluid(r.Net, "", kind, rateMbps*1e6, rtt, fsp, r.Rng.Split("fluid-"+kind))
	if err != nil {
		return nil, fmt.Errorf("-fluid: %w", err)
	}
	src.Start(0)
	var out []float64
	var last float64
	var sample func()
	sample = func() {
		delivered, _ := r.Link.FluidStats()
		out = append(out, (delivered-last)*8/interval.Seconds())
		last = delivered
		if r.Sch.Now()+interval <= dur {
			r.Sch.AfterFunc(interval, sample)
		}
	}
	r.Sch.AfterFunc(interval, sample)
	r.Sch.RunUntil(dur)
	return out, nil
}

func readSamples(f *os.File) ([]float64, error) {
	sc := bufio.NewScanner(f)
	var out []float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Accept "rate" or "t,rate".
		if i := strings.LastIndexByte(line, ','); i >= 0 {
			line = strings.TrimSpace(line[i+1:])
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
			continue
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func parseFreqs(s string) []float64 {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-fp: bad frequency %q: %v\n", p, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "-fp: no frequencies given")
		os.Exit(2)
	}
	return out
}
