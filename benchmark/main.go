// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from a
// separate traced run, and the correctness checks that make the numbers
// worth reading. BENCHMARK.json fixes the names, units, directions and
// regression bounds; benchmark/README.md explains the choices.
//
//	bash benchmark/run.sh -workload all -seed 1 -trace both
//	bash benchmark/run.sh --workload svc_warm --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh -list
//	bash benchmark/run.sh -compare before.jsonl after.jsonl
//	bash benchmark/aa.sh OUTDIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is for
// people. The exit code is non-zero when any correctness check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\"")
		seed     = flag.Int64("seed", 1, "workload seed: feeds only the generated grids and jobs, never the program")
		seconds  = flag.Float64("seconds", 0, "measure for this many seconds (default: run_seconds from BENCHMARK.json)")
		passes   = flag.Int("passes", 0, "run exactly this many rounds instead of measuring for -seconds")
		// Not a bool: the benchmark contract passes "--trace 0" and
		// "--trace 1" as two arguments, which a Go bool flag cannot parse.
		trace   = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both: one after the other")
		out     = flag.String("out", "", "append each run's record to this JSONL file, the input to -compare (default: the trajectory, benchmark/results/history.jsonl)")
		list    = flag.Bool("list", false, "print workloads and metrics with their reasons and exit")
		compare = flag.Bool("compare", false, "compare two JSONL files of runs, as markdown: -compare A.jsonl B.jsonl")
	)
	flag.Parse()

	// nproc is 2: one process, two Ps, never more than two workers or
	// two client connections.
	runtime.GOMAXPROCS(2)

	root, err := locateRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	switch {
	case *list:
		printList(os.Stdout, sp)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.jsonl B.jsonl")
			return 2
		}
		return runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}

	var names []string
	if *workload == "all" {
		names = workloadNames()
	} else {
		if err := checkWorkloadName(*workload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		names = []string{*workload}
	}
	var traced []bool
	switch *trace {
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "-trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, passes: *passes}
	if opt.seconds <= 0 {
		opt.seconds = float64(sp.RunSeconds)
	}
	if s := os.Getenv("NIMBUS_BENCH_BUILD_S"); s != "" {
		opt.buildSeconds, _ = strconv.ParseFloat(s, 64)
	}
	if *out == "" {
		*out = filepath.Join(resultsDir(root), "history.jsonl")
	}

	// An interrupt cancels ctx: daemons are started under it and die
	// with it, simulator workloads stop after the pass in flight, and
	// every temp dir is removed by its owner's defer. A second interrupt
	// gets the default treatment and ends the process at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	if len(names)*len(traced) > 1 {
		return runEach(ctx, names, traced, opt, *out)
	}
	name, tr := names[0], traced[0]
	res, err := runWorkload(ctx, name, tr, opt, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	res.Traced = tr
	res.Host = gatherHostInfo(root)
	res.print(os.Stdout, sp)
	exit := 0
	if err := appendJSONL(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	defs := sp.EndToEnd
	if tr {
		defs = sp.PerLayer
	}
	fmt.Println(res.contractLine(defs))
	if !res.Correct {
		exit = 1
	}
	return exit
}

// runEach runs several workload x trace combinations, each in a process
// of its own (this binary again, with one workload and one trace mode),
// one after the other. A run's numbers must not depend on what ran before
// it in the same process — heap left behind, the resident-set high-water
// mark, warmed pools — and must mean the same as when the benchmark's
// driver runs that one workload alone.
func runEach(ctx context.Context, names []string, traced []bool, opt options, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exit := 0
	for _, name := range names {
		for _, tr := range traced {
			mode := "0"
			if tr {
				mode = "1"
			}
			cmd := exec.CommandContext(ctx, exe, "-workload", name, "-trace", mode,
				"-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
				"-passes", fmt.Sprint(opt.passes), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// An interrupt reaches the child as an interrupt, so it stops
			// its daemon and removes its temp dirs itself.
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 30 * time.Second
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s -trace %s: %v\n", name, mode, err)
				exit = 1
			}
			if ctx.Err() != nil {
				return 1
			}
		}
	}
	return exit
}

// locateRoot finds the repository the harness was built from: above the
// binary (benchmark/run.sh puts it in .bench_build/ at the root) or, for
// go run and the self-tests, above the working directory.
func locateRoot() (string, error) {
	if exe, err := os.Executable(); err == nil {
		if root, err := findRoot(filepath.Dir(exe)); err == nil {
			return root, nil
		}
	}
	return findRoot(".")
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(ctx context.Context, name string, traced bool, opt options, root string) (*runResult, error) {
	if w, ok := simWorkloadByName(name); ok {
		if traced {
			return runSimTraced(ctx, w, opt, root)
		}
		return runSimUntraced(ctx, w, opt)
	}
	if traced {
		return runSvcTraced(ctx, name, opt, root)
	}
	return runSvcUntraced(ctx, name, opt, root)
}

// printList is -list: every workload with why it exists, every metric
// with its unit, direction, bound and meaning.
func printList(w *os.File, sp Spec) {
	fmt.Fprintln(w, "workloads (* = not in BENCHMARK.json: run by name or by -workload all, not by the benchmark's driver):")
	for _, wl := range workloadWhys(sp) {
		mark := " "
		if !sp.listed(wl.Name) {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-16s %s\n", mark, wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; bound = share of the parent's median the metric may worsen by):")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, "  %-34s %-6s %-6s better  bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, metricDocs[m.Name].Meaning)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; informational, no bound):")
	for _, m := range sp.PerLayer {
		fmt.Fprintf(w, "  %-34s %-6s %-6s better  %s\n", m.Name, m.Unit, m.Better, metricDocs[m.Name].Meaning)
	}
}
