// Command nimbus-bench regenerates the paper's tables and figures, and
// runs sweep grids through the parallel sweep engine. Each experiment id
// corresponds to one table or figure (see DESIGN.md for the index); "all"
// runs everything. Figure grids fan out across -workers cores; results
// are identical for any worker count. The -list flag (shared with
// nimbus-sim and elasticity) documents everything the harness can run:
// "-list experiments" (experiment ids), "-list schemes" (registered scheme
// specs with typed params), "-list traces" (embedded capacity traces),
// "-list topologies" (topology presets).
//
// Usage:
//
//	nimbus-bench -list experiments
//	nimbus-bench -list schemes,traces,topologies
//	nimbus-bench -run fig08 [-seed 1] [-full] [-workers 8]
//	nimbus-bench -run mobile          # schemes x time-varying link traces
//	nimbus-bench -run coexist         # heterogeneous flow mixes x traces
//	nimbus-bench -run topo            # parking-lot fairness, congested ACK paths
//	nimbus-bench -run churn           # schemes x session-arrival workloads
//	nimbus-bench -run all -full
//	nimbus-bench -grid BENCH_grid.json -out BENCH_runner.json   # the canonical sweep
//	nimbus-bench -grid sweep.json -out results.json
//	nimbus-bench -grid sweep.json -remote http://127.0.0.1:9037 -out results.json
//
// -grid runs an arbitrary sweep described by a runner.Grid JSON file;
// BENCH_grid.json is the canonical perf-tracking sweep, and
// BENCH_runner.json its committed result. With -remote the grid is
// submitted to a nimbus-svc daemon instead of simulated locally,
// streaming the daemon's per-cell progress and saving the response
// verbatim — byte-identical to a local run of the same grid (cells the
// daemon has seen before come from its cache and are not simulated at
// all).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
	"nimbus/internal/svc"
)

func main() {
	// main wraps realMain so the deferred profile writers run before the
	// process exits — including on error exits, whose profiles are exactly
	// the ones worth inspecting.
	os.Exit(realMain())
}

func realMain() int {
	var (
		list       = flag.String("list", "", exp.ListUsage)
		run        = flag.String("run", "", "experiment id to run (or \"all\")")
		seed       = flag.Int64("seed", 1, "simulation seed for -run")
		full       = flag.Bool("full", false, "run at the paper's full horizons (slower)")
		workers    = flag.Int("workers", 0, "worker pool size for experiment grids and sweeps (0 = all cores, 1 = sequential)")
		gridFile   = flag.String("grid", "", "run the sweep grid described by this JSON file (a runner.Grid document, e.g. BENCH_grid.json)")
		remote     = flag.String("remote", "", "submit the -grid sweep to a nimbus-svc daemon at this base URL instead of simulating locally")
		outFile    = flag.String("out", "", "where -grid writes its results (.json or .csv; remote responses are saved verbatim, so use .json)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file when the run completes")
	)
	flag.Parse()
	exp.Workers = *workers

	stopProfiles, err := exp.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	switch {
	case exp.HandleListFlag(*list):
	case *gridFile != "":
		return runGridFile(*gridFile, *remote, *workers, *outFile)
	case *run == "":
		flag.Usage()
		return 2
	default:
		ids := []string{*run}
		if *run == "all" {
			ids = exp.IDs()
		}
		// Every report is printed, failed cells as ERROR rows; any of
		// them makes the exit status 1, as it does for sweeps.
		status := 0
		for _, id := range ids {
			start := time.Now()
			rep, err := exp.RunReport(id, *seed, !*full)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("==== %s (%s) [%.1fs wall] ====\n%s\n", id, exp.Registry[id].Title, time.Since(start).Seconds(), rep)
			if rep.Failed() {
				fmt.Fprintf(os.Stderr, "nimbus-bench: %s has failed cells\n", id)
				status = 1
			}
		}
		return status
	}
	return 0
}

// runGridFile executes an arbitrary sweep grid from a JSON file — the
// same document POST /jobs accepts — either locally or on a nimbus-svc
// daemon. Spec-valued fields are validated and canonicalized
// (exp.CanonicalGrid), so any spelling of a sweep gets the same scenario
// keys, seeds and cache entries.
func runGridFile(path, remote string, workers int, out string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer f.Close()
	var g runner.Grid
	// Strict like POST /jobs: a removed or misspelt field is an error,
	// not a silently different sweep.
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		fmt.Fprintf(os.Stderr, "-grid %s: %v\n", path, err)
		return 2
	}
	if g, err = exp.CanonicalGrid(g); err != nil {
		fmt.Fprintf(os.Stderr, "-grid %s: %v\n", path, err)
		return 2
	}
	if remote != "" {
		return runRemote(remote, g, workers, out)
	}
	return exp.Sweep(g, workers, out)
}

// runRemote submits a grid to a nimbus-svc daemon, streams its per-cell
// progress to stderr, prints the sweep table and saves the results
// document verbatim — the bytes the daemon emits are the bytes a local
// batch run would have written, which is what makes remote and local
// runs comparable with cmp.
func runRemote(base string, g runner.Grid, workers int, out string) int {
	ctx := context.Background()
	client := svc.NewClient(base)
	// Self-healing: back off on load-shed 429s and resume the event
	// stream across a daemon restart instead of failing the sweep.
	client.Retry = svc.DefaultRetry
	created, err := client.Submit(ctx, g, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "remote job %s: %d cells on %s\n", created.ID, created.Total, base)
	if err := client.StreamEvents(ctx, created.ID, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "event stream: %v\n", err)
	}
	raw, err := client.RawResults(ctx, created.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var rs []runner.Result
	if err := json.Unmarshal(raw, &rs); err != nil {
		fmt.Fprintf(os.Stderr, "decoding daemon results: %v\n", err)
		return 1
	}
	if st, err := client.Status(ctx, created.ID); err == nil {
		fmt.Fprintf(os.Stderr, "remote job %s: %s — %d hit / %d miss / %d shared / %d errors in %.1fs\n",
			st.ID, st.State, st.Cells.Hit, st.Cells.Miss, st.Cells.Shared, st.Cells.Errors, st.ElapsedSec)
	}
	var wall float64
	for _, r := range rs {
		wall += r.WallSec
	}
	exp.PrintSweep(os.Stdout, rs, wall)
	if out != "" {
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (daemon response, verbatim)\n", out)
	}
	return exp.SweepStatus(rs)
}
