package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/exp"
	"nimbus/internal/runner"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// simPass is one execution of a simulator workload's whole input.
type simPass struct {
	wall    float64 // host seconds, grids handed over → verified results in hand
	cpu     float64 // process CPU seconds over the same interval
	results []runner.Result
	doc     []byte // runner.WriteJSON of results
	emit    time.Duration
	root    int // the pass's root span when traced
}

// runSimPass is the timed unit of every simulator workload: Grid.Expand →
// Runner.Run(exp.RunScenario) → runner.WriteJSON → the correctness checks,
// all inside the clock, because a user has nothing until the results are
// written and known good. ref, when non-nil, is the reference document
// this pass must equal byte for byte modulo wall_sec. rec may be nil
// (untraced).
func runSimPass(grids []runner.Grid, workers int, chk *checker, ref []byte, rec *recorder) simPass {
	t0, cpu0 := time.Now(), selfCPUSeconds()
	root := rec.begin("pass", noSpan, "")

	sp := rec.begin("runner.expand", root, "")
	scs := expandAll(grids)
	rec.end(sp)

	run := exp.RunScenario
	runSpan := rec.begin("runner.run", root, "")
	if rec != nil {
		run = func(sc runner.Scenario) runner.Result {
			s := rec.begin("exp.run_scenario", runSpan, sc.Key())
			r := exp.RunScenario(sc)
			rec.end(s)
			return r
		}
	}
	rn := &runner.Runner{Workers: workers}
	rs := rn.Run(scs, run)
	rec.end(runSpan)

	te := time.Now()
	sp = rec.begin("runner.emit", root, "")
	var buf bytes.Buffer
	if err := runner.WriteJSON(&buf, rs); err != nil {
		chk.op("runner.WriteJSON: " + err.Error())
	}
	rec.end(sp)
	emit := time.Since(te)

	sp = rec.begin("verify", root, "")
	chk.checkCells(rs)
	if ref != nil {
		chk.checkSameBytes("pass", buf.Bytes(), ref, false)
	}
	rec.end(sp)
	rec.end(root)
	return simPass{wall: time.Since(t0).Seconds(), cpu: selfCPUSeconds() - cpu0, results: rs, doc: buf.Bytes(), emit: emit, root: root}
}

// simSetup is what precedes a timed pass: generate the grids from the
// seed, expand them, and run every cell for a tenth of its horizon to
// fault in the heap and pools. It returns the grids and its own host
// time.
func simSetup(w simWorkload, seed int64, chk *checker) ([]runner.Grid, float64) {
	t0 := time.Now()
	grids := w.grids(seed)
	rn := &runner.Runner{Workers: w.workers}
	failed := ""
	for _, r := range rn.Run(warmupOf(expandAll(grids)), exp.RunScenario) {
		if r.Err != "" && failed == "" {
			failed = fmt.Sprintf("warm-up cell %s: %s", r.Scenario.Name, r.Err)
		}
	}
	chk.op(failed)
	return grids, time.Since(t0).Seconds()
}

// runSimUntraced measures a simulator workload's end-to-end metrics:
// rounds of set-up plus one timed pass, until the time is up; wall_s is
// the fastest pass, everything else a median over rounds. An interrupt is
// honoured between passes.
func runSimUntraced(ctx context.Context, w simWorkload, opt options) (*runResult, error) {
	res := newRunResult(w.name, opt)
	chk := &checker{}
	var setups, walls, rsss []float64
	var ref simPass
	longest := 0.0 // s, the longest round so far
	for round := 0; opt.moreRounds(round, res.started, longest); round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		begun := time.Now()
		// Every round starts from an empty heap and its own resident-set
		// high-water mark, so peak_rss_mb is a round's peak, a median
		// over rounds like every other number. Where the mark cannot be
		// reset every round reads the peak of the run so far; the run is
		// a process of its own, so that is still this run's peak.
		if err := resetPeakRSS(); err != nil && round == 0 {
			logf("%s: peak_rss_mb is the run's peak, not a round's: %v", w.name, err)
		}
		grids, setup := simSetup(w, opt.seed, chk)
		setups = append(setups, setup)
		runtime.GC()
		var refDoc []byte
		if round > 0 {
			refDoc = ref.doc
		}
		p := runSimPass(grids, w.workers, chk, refDoc, nil)
		if round == 0 {
			ref = p
		}
		walls = append(walls, p.wall)
		rss, err := peakRSSMB(0)
		if err != nil {
			chk.op("peak rss: " + err.Error())
		}
		rsss = append(rsss, rss)
		longest = math.Max(longest, time.Since(begun).Seconds())
		logf("%s round %d: setup %.3fs pass %.3fs peak rss %.1f MB", w.name, round, setup, p.wall, rss)
	}
	res.Rounds, res.PassWalls = len(walls), walls
	res.ResultsDigest = resultsDigest(ref.doc)
	wall := fastest(walls)
	res.set("setup_s", median(setups), len(setups))
	res.set("wall_s", wall, len(walls))
	res.set("sim_s_per_wall_s", simSecondsOfResults(ref.results)/wall, len(walls))
	res.set("peak_rss_mb", median(rsss), len(rsss))
	res.finish(chk)
	return res, nil
}

func simSecondsOfResults(rs []runner.Result) float64 {
	s := 0.0
	for _, r := range rs {
		s += r.Scenario.DurationSec
	}
	return s
}

// replayCounts is what the replay pass reads off one cell's rig.
type replayCounts struct {
	events             uint64
	delivered, dropped uint64
	ticks              uint64 // Nimbus ticks with a full detector window
	build, run         time.Duration
}

// replayCell rebuilds one cell from the exported pieces exp.RunScenario
// itself is made of — rig construction, then Scheduler.RunUntil — with a
// span around each, so a cell's host time divides into build, event loop
// and (by subtraction from the exp.run_scenario span) result collection.
// It also reads the counters only the rig holds: packets delivered and
// dropped at the bottleneck, and detector ticks.
func replayCell(sc runner.Scenario, rec *recorder, parent int) (replayCounts, error) {
	var c replayCounts
	unit := sc.Key()
	t0 := time.Now()
	sp := rec.begin("exp.rig_build", parent, unit)
	r, nimbuses, err := buildRig(sc)
	rec.end(sp)
	c.build = time.Since(t0)
	if err != nil {
		return c, err
	}
	for _, n := range nimbuses {
		prev := n.OnTick
		n.OnTick = func(t core.Telemetry) {
			if t.EtaReady {
				c.ticks++
			}
			if prev != nil {
				prev(t)
			}
		}
	}
	t1 := time.Now()
	sp = rec.begin("sim.run_until", parent, unit)
	r.Sch.RunUntil(sim.FromSeconds(sc.DurationSec))
	rec.end(sp)
	c.run = time.Since(t1)
	c.events = r.Sch.Executed
	c.delivered = r.Link.DeliveredPackets
	c.dropped = r.Link.DroppedPackets
	return c, nil
}

// buildRig constructs the rig of a scenario the way the matching
// exp.Run*Scenario does, through exported functions only.
func buildRig(sc runner.Scenario) (*exp.Rig, []*core.Nimbus, error) {
	var nimbuses []*core.Nimbus
	if sc.FlowMix != "" {
		specs, err := exp.ParseFlowMix(sc.FlowMix)
		if err != nil {
			return nil, nil, err
		}
		r := exp.NewRig(exp.NetConfigFor(sc))
		flows, err := r.AddFlowSpecs(specs...)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range flows {
			if f.Scheme.Nimbus != nil {
				nimbuses = append(nimbuses, f.Scheme.Nimbus)
			}
		}
		// RunFlowMixScenario draws its shared delay recorder's stream
		// here; drawing it too keeps every later stream the same.
		r.Rng.Split("mix-dlyrec")
		rtt := sim.FromSeconds(sc.RTTms / 1e3)
		if err := exp.AddCross(r, sc.Cross, sc.CrossRateMbps*1e6, rtt); err != nil {
			return nil, nil, err
		}
		return r, nimbuses, nil
	}
	r, sch, _, err := exp.RigForScenario(sc)
	if err != nil {
		return nil, nil, err
	}
	if sch.Nimbus != nil {
		nimbuses = append(nimbuses, sch.Nimbus)
	}
	if sc.Churn != "" {
		wsp, err := workload.ParseSpec(sc.Churn)
		if err != nil {
			return nil, nil, err
		}
		gen := &workload.Generator{
			Net: r.Net, Rng: r.Rng.Split("churn"), Spec: wsp,
			RTT: sim.FromSeconds(sc.RTTms / 1e3), MuBps: r.MuBps,
		}
		if err := gen.Start(0); err != nil {
			return nil, nil, err
		}
	}
	return r, nimbuses, nil
}

// replayAll replays every cell on the workload's worker count and sums
// the counters. The replay mirrors exp's rig construction from outside;
// it returns how many cells failed to build or executed a different
// number of events than exp.RunScenario did, which means the mirror has
// drifted from exp and the replay's counts and timings describe some
// other simulation.
func replayAll(scs []runner.Scenario, real []runner.Result, workers int, rec *recorder) (replayCounts, int) {
	parent := rec.begin("replay", noSpan, "")
	var mu sync.Mutex
	var total replayCounts
	mismatched := 0
	runner.Map(workers, len(scs), func(i int) struct{} {
		c, err := replayCell(scs[i], rec, parent)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fmt.Fprintf(os.Stderr, "replay %s: %v\n", scs[i].Name, err)
			mismatched++
			return struct{}{}
		}
		if i < len(real) && c.events != real[i].Events {
			mismatched++
		}
		total.events += c.events
		total.delivered += c.delivered
		total.dropped += c.dropped
		total.ticks += c.ticks
		total.build += c.build
		total.run += c.run
		return struct{}{}
	})
	rec.end(parent)
	return total, mismatched
}

// replayFailure is the check that the replay still mirrors exp: "" or why
// not.
func replayFailure(mismatched, cells int) string {
	if mismatched == 0 {
		return ""
	}
	return fmt.Sprintf("replay: %d of %d cells failed or executed a different event count than exp.RunScenario: buildRig no longer mirrors exp.Run*Scenario",
		mismatched, cells)
}

// runSimTraced produces a simulator workload's per-layer metrics: an
// untraced reference pass, the same pass with spans, a replay pass that
// splits each cell into rig build and event loop, the isolated layer
// probes, and the workload's extra comparisons (Workers=1 for the
// canonical sweep, the packet-path reference for the fluid cells).
func runSimTraced(ctx context.Context, w simWorkload, opt options, root string) (*runResult, error) {
	res := newRunResult(w.name, opt)
	chk := &checker{}
	rec := newRecorder()

	runtime.GC()
	grids, _ := simSetup(w, opt.seed, chk)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scs := expandAll(grids)

	// Reference pass, untraced, with allocator and CPU accounting.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref := runSimPass(grids, w.workers, chk, nil, nil)
	runtime.ReadMemStats(&m1)
	res.ResultsDigest = resultsDigest(ref.doc)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Traced pass.
	runtime.GC()
	traced := runSimPass(grids, w.workers, chk, ref.doc, rec)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Replay pass.
	runtime.GC()
	counts, mismatched := replayAll(scs, ref.results, w.workers, rec)
	chk.op(replayFailure(mismatched, len(scs)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	spans := rec.snapshot()
	cells := float64(len(scs))
	runMs, collectUs := scenarioSpans(spans)
	var cellWallMs []float64
	cellHostSec := 0.0
	for _, r := range ref.results {
		cellWallMs = append(cellWallMs, r.WallSec*1e3)
		cellHostSec += r.WallSec
	}

	pr := runProbes()
	pr.apply(res)

	simSec := simSecondsOfResults(ref.results)
	events := sumEvents(ref.results)
	res.set("sim.events", float64(events), len(scs))
	res.set("sim.events_per_sim_s", float64(events)/simSec, len(scs))
	res.set("sim.run_until_ms", counts.run.Seconds()*1e3/cells, len(scs))
	res.set("netem.delivered_pkts", float64(counts.delivered), len(scs))
	res.set("netem.dropped_pkts", float64(counts.dropped), len(scs))
	res.set("core.detector_ticks", float64(counts.ticks), len(scs))
	res.set("core.detector_share_est", float64(counts.ticks)*pr["core.detector_tick_ns"]/1e9/cellHostSec, len(scs))
	res.set("exp.rig_build_us", counts.build.Seconds()*1e6/cells, len(scs))
	res.set("exp.collect_us", collectUs/cells, len(scs))
	res.set("exp.run_scenario_p50_ms", median(runMs), len(runMs))
	res.set("exp.run_scenario_p90_ms", percentileOrZero(runMs, 0.9), len(runMs))
	res.set("runner.expand_us_per_cell", measureExpandUs(grids), len(scs))
	res.set("runner.key_ns", measureKeyNs(scs), len(scs))
	res.set("runner.emit_us_per_cell", ref.emit.Seconds()*1e6/cells, len(scs))
	res.set("runner.cell_wall_p50_ms", median(cellWallMs), len(cellWallMs))
	res.set("runner.cell_wall_p90_ms", percentileOrZero(cellWallMs, 0.9), len(cellWallMs))
	res.set("runner.alloc_mb_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), 1)
	res.set("runner.gc_cycles_per_pass", float64(m1.NumGC-m0.NumGC), 1)
	res.set("runner.gc_pause_ms_per_pass", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1)
	res.set("proc.cpu_s", ref.cpu, 1)
	res.set("proc.cpu_util", ref.cpu/ref.wall/2, 1)
	acc, nAcc := modeAccuracy(ref.results)
	res.set("core.mode_accuracy", acc, nAcc)
	res.set("trace.overhead_pct", (traced.wall-ref.wall)/ref.wall*100, 1)
	res.set("build.go_build_s", opt.buildSeconds, 1)

	var started, maxActive float64
	for _, r := range ref.results {
		started += r.Metrics["churn_started"]
		if a := r.Metrics["churn_max_active"]; a > maxActive {
			maxActive = a
		}
	}
	res.set("workload.sessions_started", started, len(scs))
	res.set("workload.max_active", maxActive, len(scs))

	if w.workers > 1 {
		// A parallel workload: the same grids on one worker must give
		// the same bytes, and the ratio of the two walls is the runner's
		// parallel speed-up.
		runtime.GC()
		w1 := runSimPass(grids, 1, chk, ref.doc, nil)
		res.set("runner.parallel_speedup_w2", w1.wall/ref.wall, 1)
	}
	if usesFluid(scs) {
		fluidReference(grids, ref.results, chk, res)
	}

	res.WhereTimeGoes = splitRunScenario(selfTimes(subtree(spans, traced.root)), counts)
	res.Estimates = estimatesFor(res, pr, cellHostSec)
	if err := rec.write(traceFile(root, w.name)); err != nil {
		fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
	}
	res.Rounds = 1
	res.finish(chk)
	return res, nil
}

// fluidReference runs a fluid workload's cells on the exact packet path,
// same seeds, as the reference model: how far fluid queueing delay
// is from it, and how many events the fluid path saves.
func fluidReference(grids []runner.Grid, fluid []runner.Result, chk *checker, res *runResult) {
	rn := &runner.Runner{Workers: 1}
	pkt := rn.Run(expandAll(packetReference(grids)), exp.RunScenario)
	chk.checkCells(pkt)
	if len(pkt) != len(fluid) {
		chk.op(fmt.Sprintf("fluid reference: %d packet cells for %d fluid cells", len(pkt), len(fluid)))
		return
	}
	errSum, n := 0.0, 0
	for i := range pkt {
		p, f := pkt[i].Metrics["qdelay_mean_ms"], fluid[i].Metrics["qdelay_mean_ms"]
		if p > 0 {
			d := f - p
			if d < 0 {
				d = -d
			}
			errSum += d / p * 100
			n++
		}
	}
	if n > 0 {
		res.set("netem.fluid_qdelay_err_pct", errSum/float64(n), n)
	}
	if fe := sumEvents(fluid); fe > 0 {
		res.set("crosstraffic.fluid_events_ratio", float64(sumEvents(pkt))/float64(fe), len(pkt))
	}
}

// measureExpandUs times Grid.Expand over the workload's grids, per cell.
func measureExpandUs(grids []runner.Grid) float64 {
	cells := len(expandAll(grids))
	if cells == 0 {
		return 0
	}
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, g := range grids {
			sink += len(g.Expand())
		}
	}
	return time.Since(t0).Seconds() * 1e6 / float64(reps*cells)
}

// measureKeyNs times Scenario.Key plus CacheKey over the workload's
// cells: what the daemon pays per cell before it can look anything up.
func measureKeyNs(scs []runner.Scenario) float64 {
	if len(scs) == 0 {
		return 0
	}
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, sc := range scs {
			sink += len(sc.Key()) + len(sc.CacheKey("v"))
		}
	}
	return time.Since(t0).Seconds() * 1e9 / float64(reps*len(scs))
}

// sink keeps measured calls from being optimized away.
var sink int
