package main

import (
	"fmt"

	"nimbus/internal/runner"
	"nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// A simWorkload is a batch simulator workload: a fixed list of grids
// generated from the seed, expanded and run through runner.Runner with
// exp.RunScenario, at a fixed worker count.
type simWorkload struct {
	name    string
	workers int
	grids   func(seed int64) []runner.Grid
}

// simWorkloads are the four batch workloads. The inputs are fixed by
// BENCHMARK.json's "why" lines and benchmark/README.md; only the seed
// varies between runs.
var simWorkloads = []simWorkload{
	{name: "sweep_canonical", workers: 2, grids: sweepCanonicalGrids},
	{name: "detector_dense", workers: 1, grids: detectorDenseGrids},
	{name: "churn_sessions", workers: 1, grids: churnSessionsGrids},
	{name: "cross_fluid", workers: 1, grids: crossFluidGrids},
}

func simWorkloadByName(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// sweepCanonicalGrids is cmd/nimbus-bench's benchGrid, reproduced here
// because a main package cannot be imported: four scheme families x
// three cross-traffic kinds x two rates, 30 sim-s. A self-test pins it
// to the scenario keys in BENCH_runner.json, so seed 1 is the continuity
// anchor (28,370,893 events).
func sweepCanonicalGrids(seed int64) []runner.Grid {
	return []runner.Grid{{
		Base: runner.Scenario{
			RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: seed,
		},
		RatesMbps: []float64{96, 192},
		Schemes:   scheme.Specs("nimbus", "cubic", "bbr", "copa"),
		Crosses: []runner.Cross{
			{Kind: "none"},
			{Kind: "poisson", RateMbps: 48},
			{Kind: "cubic"},
		},
	}}
}

// detectorDenseGrids puts few packets and many detectors in each 10 ms
// tick: low-rate links, so the per-tick FFT dominates the per-packet
// path. cubic*8 is the control — the same link without any detector.
func detectorDenseGrids(seed int64) []runner.Grid {
	var gs []runner.Grid
	for _, rate := range []float64{6, 12, 24} {
		gs = append(gs, runner.Grid{
			Base: runner.Scenario{
				Scheme: scheme.New("nimbus"), RateMbps: rate,
				RTTms: 50, BufferMs: 100, DurationSec: 60, Seed: seed,
			},
			Crosses: []runner.Cross{
				{Kind: "none"},
				{Kind: "poisson", RateMbps: rate / 2},
				{Kind: "cubic"},
			},
		})
	}
	gs = append(gs, runner.Grid{
		Base: runner.Scenario{
			RateMbps: 24, RTTms: 50, BufferMs: 100, DurationSec: 60, Seed: seed,
		},
		FlowMixes: []string{"nimbus*4", "nimbus*8", "cubic*8"},
	})
	return gs
}

// churnSessionsGrids runs thousands of short session flows past one
// long-lived flow. Churn cells enable the timer wheel themselves
// (exp.NetConfigFor), so this measures the wheel, the generator, sender
// set-up/teardown and the allocator — not the heap or steady state.
func churnSessionsGrids(seed int64) []runner.Grid {
	return []runner.Grid{{
		Base: runner.Scenario{
			RateMbps: 192, RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: seed,
		},
		Schemes: scheme.Specs("nimbus", "cubic"),
		Churns:  []string{"web(load=96)", "bulk(load=96,xm=3000)"},
	}}
}

// crossFluidGrids runs the cross traffic as a fluid rate process: the
// same netem.Link, integrated analytically instead of drained per
// packet, at 0.875 of the link rate. Two derived seeds per cell keep the
// cell count (24) close to the canonical sweep's while the pass stays
// short.
func crossFluidGrids(seed int64) []runner.Grid {
	seeds := []int64{
		sim.DeriveSeed(seed, "cross_fluid/a"),
		sim.DeriveSeed(seed, "cross_fluid/b"),
	}
	var gs []runner.Grid
	for _, rate := range []float64{96, 192} {
		gs = append(gs, runner.Grid{
			Base: runner.Scenario{
				RateMbps: rate, RTTms: 50, BufferMs: 100, DurationSec: 30,
				FluidCross: "on",
			},
			Schemes: scheme.Specs("nimbus", "cubic"),
			Crosses: []runner.Cross{
				{Kind: "cbr", RateMbps: 0.875 * rate},
				{Kind: "poisson", RateMbps: 0.875 * rate},
				{Kind: "cubic"},
			},
			Seeds: seeds,
		})
	}
	return gs
}

// packetReference returns the grids with the fluid axis off: the same
// cells on the exact per-packet path, same seeds, cell for cell.
func packetReference(gs []runner.Grid) []runner.Grid {
	out := make([]runner.Grid, len(gs))
	for i, g := range gs {
		g.Base.FluidCross = ""
		g.Fluids = nil
		out[i] = g
	}
	return out
}

// usesFluid reports whether any cell runs its cross traffic as fluid.
func usesFluid(scs []runner.Scenario) bool {
	for _, sc := range scs {
		if sc.FluidCross != "" {
			return true
		}
	}
	return false
}

// expandAll concatenates the grids' expansions: one pass runs them as a
// single scenario list.
func expandAll(gs []runner.Grid) []runner.Scenario {
	var scs []runner.Scenario
	for _, g := range gs {
		scs = append(scs, g.Expand()...)
	}
	return scs
}

// warmupOf shortens every cell to a tenth of its horizon. The warm-up
// pass faults in the heap, the packet and timer pools and (past 5 sim-s)
// the detector's FFT before anything is timed; its results are checked
// for errors and discarded.
func warmupOf(scs []runner.Scenario) []runner.Scenario {
	out := make([]runner.Scenario, len(scs))
	for i, sc := range scs {
		sc.DurationSec /= 10
		out[i] = sc
	}
	return out
}

// svcSizes are the daemon workloads' job counts. One svc_cold pass is
// coldJobs jobs; svc_warm pre-populates with the first warmUnique of
// those jobs and then resubmits them round-robin, warmMemJobs before the
// restart and warmDiskJobs after.
type svcSizes struct {
	coldJobs, warmUnique, warmMemJobs, warmDiskJobs int
}

// defaultSvcSizes are the sizes the benchmark is defined at; only the
// self-tests run smaller.
var defaultSvcSizes = svcSizes{coldJobs: 120, warmUnique: 40, warmMemJobs: 2000, warmDiskJobs: 500}

const (
	svcClients       = 2
	svcDaemonWorkers = 1
)

// svcJobs generates the daemon job list: n small grids (nimbus,cubic x
// 12,24 Mbit/s, 20 ms RTT, 3-5 sim-s, every other job doubled by a
// Poisson cross axis, so 4 or 8 cells) with job-unique seeds, so no two
// jobs share a cell and every cell of a cold pass misses.
func svcJobs(seed int64, n int) []runner.Grid {
	jobs := make([]runner.Grid, n)
	for j := range jobs {
		g := runner.Grid{
			Base: runner.Scenario{
				RTTms: 20, BufferMs: 100,
				DurationSec: float64(3 + j%3),
				Seed:        seed*100000 + int64(j) + 1,
			},
			Schemes:   scheme.Specs("nimbus", "cubic"),
			RatesMbps: []float64{12, 24},
		}
		if j%2 == 1 {
			g.Crosses = []runner.Cross{{Kind: "none"}, {Kind: "poisson", RateMbps: 6}}
		}
		jobs[j] = g
	}
	return jobs
}

// extraWorkloads are implemented, checked and runnable by name (and by
// -workload all) but not listed in BENCHMARK.json, so the benchmark's
// driver does not run them: its time budget for all runs allows four
// workloads at a run length that is steady on a shared host, not six.
// Their "why" lives here instead. What each would catch is still partly
// seen by a listed workload: svc_warm's set-up is svc_cold's first 40
// jobs, so setup_s there moves with the cold path.
var extraWorkloads = []WorkloadDef{
	{Name: "cross_fluid", Why: "cross traffic as a fluid rate process: the same netem.Link integrated analytically, 3x fewer events; a link change that taxes the fluid path shows here"},
	{Name: "svc_cold", Why: "fresh nimbus-svc and cache, 120 jobs with unique seeds from 2 closed-loop clients over loopback: every cell simulated, then journal, cache write, rig build, encode"},
}

// workloadWhys returns every implemented workload with its reason, in
// workloadNames order: BENCHMARK.json's lines for the listed ones,
// extraWorkloads' for the rest.
func workloadWhys(sp Spec) []WorkloadDef {
	why := map[string]string{}
	for _, w := range append(append([]WorkloadDef{}, sp.Workloads...), extraWorkloads...) {
		why[w.Name] = w.Why
	}
	var out []WorkloadDef
	for _, n := range workloadNames() {
		out = append(out, WorkloadDef{Name: n, Why: why[n]})
	}
	return out
}

// listed reports whether BENCHMARK.json names the workload.
func (sp Spec) listed(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// workloadNames lists every workload the harness implements: the ones
// BENCHMARK.json lists and the extras.
func workloadNames() []string {
	var out []string
	for _, w := range simWorkloads {
		out = append(out, w.name)
	}
	return append(out, "svc_cold", "svc_warm")
}

func checkWorkloadName(name string) error {
	for _, n := range workloadNames() {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}
