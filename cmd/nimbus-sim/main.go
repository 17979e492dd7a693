// Command nimbus-sim runs scenarios on the emulated bottleneck. With
// scalar flags it runs one scenario and prints a per-second trace, then
// every metric the cell reports — the quickest way to watch Nimbus (or
// any baseline) against a chosen cross traffic mix. Schemes are typed
// specs resolved in the scheme registry: "-scheme nimbus(pulse=0.1,mu=est)"
// parameterizes the scheme inline ("-list schemes" documents every scheme
// and parameter). "-flows nimbus*2+cubic@10" replaces the single scheme
// under test with a heterogeneous flow mix (counts, staggered joins,
// finite flows) and reports per-flow throughput plus Jain/JSD fairness.
// "-churn bulk(load=24)" adds a session-arrival workload
// (internal/workload) around the scheme or the mix — short flows arriving
// and departing for the whole horizon — and reports churn_* metrics
// (completion times, fairness, elastic ground truth). The bottleneck may
// be time-varying: -link-trace names an embedded capacity trace (or a
// time_ms,mbps file) and -rate-pattern applies a step/ramp/outage
// pattern to the nominal rate. The path may be multi-hop: -topology
// selects a registered preset (single, access-hop, parking-lot,
// rev-congested; see "-list topologies") or a chain spec like
// "access(x4,5ms)->bn", and multi-hop runs report per-hop
// utilization/drops/queueing. Any of -scheme, -flows, -churn, -rate,
// -rtt, -buf, -aqm, -cross, -fluid, -link-trace, -rate-pattern, -topology
// and -seed also accept comma-separated lists (commas inside a spec's
// parentheses don't split); the cartesian product then runs as a
// parallel sweep on -workers cores and prints one summary row per
// scenario (optionally written to -out as JSON or CSV). -list prints the
// listings every CLI shares (schemes, traces, topologies, experiments).
//
// Examples:
//
//	nimbus-sim -scheme nimbus -rate 96 -rtt 50ms -buf 100ms -cross cubic -dur 60s
//	nimbus-sim -scheme "nimbus(pulse=0.125,mu=est),cubic,bbr" -rate 48,96 \
//	    -cross poisson -workers 8 -out sweep.csv
//	nimbus-sim -flows "nimbus+cubic,nimbus*2+bbr@10" -churn "web(load=12)" -link-trace cell-ramp
//	nimbus-sim -scheme nimbus -rate-pattern step:12:48:4000,outage:20000:5000 -dur 60s
//	nimbus-sim -scheme nimbus,cubic -topology access-hop,parking-lot -out topo.json
//	nimbus-sim -scheme nimbus -churn "bulk(load=24),web(load=12)" -dur 60s
//	nimbus-sim -list schemes,topologies
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"nimbus/internal/crosstraffic"
	"nimbus/internal/exp"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

func main() {
	// main wraps realMain so the deferred profile writers run before the
	// process exits.
	os.Exit(realMain())
}

func realMain() int {
	var (
		scheme  = flag.String("scheme", "nimbus", "scheme spec(s) under test, comma-separated (see -list schemes)")
		flows   = flag.String("flows", "", "heterogeneous flow mix(es) replacing -scheme: SPEC[*COUNT][@STARTs[:STOPs]] joined by \"+\"; comma-separated for sweeps")
		churn   = flag.String("churn", "", "session-arrival workload(s) competing with -scheme: workload specs like bulk(load=24), web(load=12,cc=bbr), trace(src=flash-crowd); comma-separated for sweeps")
		rate    = flag.String("rate", "96", "bottleneck link rate(s), Mbit/s, comma-separated")
		rtt     = flag.String("rtt", "50ms", "base RTT(s), comma-separated durations")
		buf     = flag.String("buf", "100ms", "buffer depth(s) (time at link rate), comma-separated durations")
		aqm     = flag.String("aqm", "droptail", "queue discipline(s): "+netem.AQMNames(", ")+"; comma-separated")
		trace   = flag.String("link-trace", "", "time-varying link capacity trace(s): embedded names (see -list traces) or time_ms,mbps files; comma-separated")
		pattern = flag.String("rate-pattern", "", "time-varying link pattern(s): step:LO:HI:PERIODms, ramp:MIN:MAX:PERIODms, outage:ATms:DURms, constant; comma-separated")
		topo    = flag.String("topology", "", "path topology(ies): preset names (see -list topologies) or chain specs like access(x4,5ms)->bn; comma-separated")
		cross   = flag.String("cross", "none", "cross traffic kind(s), comma-separated: "+crosstraffic.KindNames(nil))
		crossMb = flag.Float64("cross-rate", 48, "cross traffic rate for poisson/cbr/trace, Mbit/s")
		fluid   = flag.String("fluid", "", "fluid cross-traffic spec(s): off, on, or dt=5ms, comma-separated for sweeps — simulate the cross aggregate as a rate process instead of packets (cbr/poisson/cubic/reno kinds only; approximate, so fluid cells get their own scenario keys)")
		dur     = flag.Duration("dur", 60*time.Second, "simulated duration")
		seed    = flag.String("seed", "1", "random seed(s), comma-separated")
		workers = flag.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = sequential)")
		out     = flag.String("out", "", "write sweep results to this file (.json or .csv)")
		quiet   = flag.Bool("quiet", false, "suppress the per-second trace (single-scenario mode)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file when the run completes")

		list = flag.String("list", "", exp.ListUsage)
	)
	flag.Parse()
	if exp.HandleListFlag(*list) {
		return 0
	}

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	grid := runner.Grid{
		Base: runner.Scenario{
			CrossRateMbps: *crossMb,
			DurationSec:   sim.FromDuration(*dur).Seconds(),
		},
		RatesMbps:    parseFloats(*rate, "-rate"),
		LinkTraces:   splitStrings(*trace),
		RatePatterns: splitStrings(*pattern),
		Topologies:   spec.SplitList(*topo),
		RTTsMs:       parseDurationsMs(*rtt, "-rtt"),
		BuffersMs:    parseDurationsMs(*buf, "-buf"),
		AQMs:         splitStrings(*aqm),
		Crosses:      crossList(*cross, *crossMb),
		Fluids:       splitStrings(*fluid),
		Seeds:        parseInts(*seed, "-seed"),
	}
	if *flows != "" {
		if grid.FlowMixes = spec.SplitList(*flows); len(grid.FlowMixes) == 0 {
			fatalf("-flows: no values given")
		}
	} else {
		if grid.Schemes, err = spec.ParseList(*scheme); err != nil {
			fatalf("-scheme: %v", err)
		}
		if len(grid.Schemes) == 0 {
			fatalf("-scheme: no values given")
		}
	}
	grid.Churns = spec.SplitList(*churn)
	// Flags only split; validating and canonicalizing the spec-valued
	// axes (so "-topology single -fluid off" lands on the default key)
	// is exp.CanonicalGrid's job, shared with -grid files and POST /jobs.
	if grid, err = exp.CanonicalGrid(grid); err != nil {
		fatalf("%v (see -list schemes,topologies)", err)
	}
	scs := grid.Expand()
	if len(scs) == 1 {
		// Single-scenario mode runs with the requested seed itself (the
		// historical behavior); seed derivation only matters for sweeps,
		// where cells must not share random streams.
		scs[0].RunSeed = 0
		return runSingle(scs[0], *quiet)
	}
	return exp.Sweep(grid, *workers, *out)
}

// crossList expands a comma-separated -cross value; every kind shares the
// -cross-rate.
func crossList(kinds string, rateMbps float64) []runner.Cross {
	var out []runner.Cross
	for _, k := range splitStrings(kinds) {
		out = append(out, runner.Cross{Kind: k, RateMbps: rateMbps})
	}
	if len(out) == 0 {
		fatalf("-cross: no values given")
	}
	return out
}

// runSingle is the single-scenario view, for every scenario kind: a
// per-second trace of the flows under test (aggregate throughput, queueing
// delay, the first flow's Nimbus mode and eta), then the cell's metrics,
// sorted by name. It returns the exit status.
func runSingle(sc runner.Scenario, quiet bool) int {
	cell, err := exp.BuildScenario(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sch, end := cell.Rig.Sch, sim.FromSeconds(sc.DurationSec)
	if !quiet {
		fmt.Printf("%6s %10s %10s %8s %10s\n", "t(s)", "Mbit/s", "delay(ms)", "mode", "eta")
		var report func()
		report = func() {
			now := sch.Now()
			if now > 0 {
				mbps := 0.0
				for _, f := range cell.Flows {
					mbps += f.Probe.MeanMbps(now-sim.Second, now)
				}
				mode, eta := "-", "-"
				if n := cell.Flows[0].Scheme.Nimbus; n != nil {
					mode = n.Mode().String()
					eta = fmt.Sprintf("%.2f", n.LastEta())
				}
				fmt.Printf("%6.0f %10.2f %10.2f %8s %10s\n",
					now.Seconds(), mbps, cell.Rig.Net.QueueDelayNow().Millis(), mode, eta)
			}
			if now < end {
				sch.AfterFunc(sim.Second, report)
			}
		}
		sch.AfterFunc(0, report)
	}
	sch.RunUntil(end)

	m := cell.Metrics(end)
	fmt.Printf("\n%s\n", sc.Key())
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("%-18s %12.3f\n", k, m[k])
	}
	return 0
}

func splitStrings(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s, flagName string) []float64 {
	var out []float64
	for _, p := range splitStrings(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fatalf("%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func parseInts(s, flagName string) []int64 {
	var out []int64
	for _, p := range splitStrings(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			fatalf("%s: bad value %q: %v", flagName, p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func parseDurationsMs(s, flagName string) []float64 {
	var out []float64
	for _, p := range splitStrings(s) {
		d, err := time.ParseDuration(p)
		if err != nil {
			fatalf("%s: bad duration %q: %v", flagName, p, err)
		}
		out = append(out, sim.FromDuration(d).Millis())
	}
	if len(out) == 0 {
		fatalf("%s: no values given", flagName)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
