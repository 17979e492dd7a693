package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the worker count used when a Runner (or Map) is given
// zero: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Map runs f(i) for i in [0,n) on a pool of workers and returns the
// results indexed by i. Results are identical to a sequential loop as long
// as f is self-contained (every experiment cell builds its own scheduler
// and random streams, so they are). workers <= 1 runs inline, 0 means
// DefaultWorkers. This is the engine's core primitive: the declarative
// Scenario path and the hand-written figure grids both go through it.
func Map[T any](workers, n int, f func(i int) T) []T {
	out := make([]T, n)
	if workers == 0 {
		workers = DefaultWorkers()
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunFunc executes one scenario and reports its structured result.
// internal/exp provides the standard implementation (exp.RunScenario);
// the indirection keeps this package free of a dependency on the
// experiment layer.
type RunFunc func(sc Scenario) Result

// Runner executes scenarios on a worker pool.
type Runner struct {
	// Workers is the pool size; 0 means DefaultWorkers, 1 is sequential.
	Workers int
	// OnProgress, if set, is called after each completed run with the
	// number done, the total, and the result. Calls are serialized but
	// arrive in completion order, not submission order.
	OnProgress func(done, total int, r Result)
	// OnCell, if set, is called after each completed run with the cell's
	// submission index and result, under the same lock as OnProgress (so
	// the two observe cells in the same order). It exists for callers
	// that track per-cell state — the experiment service marks job cells
	// done through it.
	OnCell func(i int, r Result)
}

// IndexedRunFunc executes cell i of a grid. The index lets callers that
// track per-cell state (the experiment service's hit/miss accounting)
// correlate a run with its submission slot without threading that state
// through the Scenario.
type IndexedRunFunc func(i int, sc Scenario) Result

// Run executes every scenario through run and returns results in
// submission order, regardless of worker count or completion order.
func (rn *Runner) Run(scs []Scenario, run RunFunc) []Result {
	return rn.RunGrid(context.Background(), scs, func(_ int, sc Scenario) Result { return run(sc) })
}

// RunGrid is Run with cancellation: cells that have not started when ctx
// is done are not run and report ctx's error in their Err field (cells
// already in flight finish — a simulation is not interruptible mid-run,
// and a completed result is worth caching). Results still come back in
// submission order, one per scenario, for any worker count, and OnCell
// fires for every cell — run or cancelled — so per-cell accounting always
// reaches the total.
func (rn *Runner) RunGrid(ctx context.Context, scs []Scenario, run IndexedRunFunc) []Result {
	var mu sync.Mutex
	done := 0
	return Map(rn.Workers, len(scs), func(i int) Result {
		var r Result
		if err := ctx.Err(); err != nil {
			r = Result{Scenario: scs[i], Err: err.Error()}
		} else {
			start := time.Now()
			r = runGuarded(func(sc Scenario) Result { return run(i, sc) }, scs[i])
			if r.WallSec == 0 {
				r.WallSec = time.Since(start).Seconds()
			}
		}
		if rn.OnProgress != nil || rn.OnCell != nil {
			mu.Lock()
			done++
			if rn.OnProgress != nil {
				rn.OnProgress(done, len(scs), r)
			}
			if rn.OnCell != nil {
				rn.OnCell(i, r)
			}
			mu.Unlock()
		}
		return r
	})
}

// RunWatched executes run on its own goroutine under a wall-clock
// watchdog. If run returns within timeout, its result comes back with
// reaped=false. Otherwise the cell is reaped: RunWatched cancels the
// context it handed run — releasing any run function that honors it
// (blocking IO, injected hangs) so the goroutine exits — and returns an
// error row naming the watchdog, with reaped=true. A run function that
// ignores the context keeps running detached; its eventual result is
// discarded.
//
// timeout <= 0 disables the watchdog and runs inline. Panics in run are
// converted to error rows either way, so a watched goroutine can never
// tear the process down.
//
// This is the primitive the experiment service wraps around each cell
// inside the store's singleflight: when a cell hangs, the watchdog's
// error row settles the flight, so every job waiting on that cell is
// released with the error instead of blocking forever.
func RunWatched(ctx context.Context, sc Scenario, timeout time.Duration, run func(ctx context.Context) Result) (r Result, reaped bool) {
	guarded := func(cctx context.Context) Result {
		return runGuarded(func(Scenario) Result { return run(cctx) }, sc)
	}
	if timeout <= 0 {
		return guarded(ctx), false
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan Result, 1)
	go func() { ch <- guarded(cctx) }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r = <-ch:
		return r, false
	case <-timer.C:
		cancel() // release a context-aware run so its goroutine exits
		return Result{Scenario: sc, Err: fmt.Sprintf("watchdog: cell exceeded %v", timeout)}, true
	}
}

// runGuarded converts a panicking scenario (unknown scheme, bad AQM) into
// an error row instead of tearing down the whole sweep.
func runGuarded(run RunFunc, sc Scenario) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r = Result{Scenario: sc, Err: fmt.Sprint(p)}
		}
	}()
	return run(sc)
}

// FormatProgress renders the one-line status of a completed run: position
// in the sweep, elapsed wall-clock seconds since the sweep started, the
// scenario name, and the run's simulator throughput in events per
// wall-clock second (or its error). Progress prints exactly these lines;
// the experiment service streams them per job so a remote sweep reads the
// same as a local one. A line is AppendProgressHead's head followed by
// ProgressTail's tail.
func FormatProgress(elapsed time.Duration, done, total int, r Result) string {
	return string(AppendProgressHead(nil, elapsed, done, total)) + ProgressTail(r)
}

// AppendProgressHead appends the part of a progress line that depends on
// the sweep, not the run: position and elapsed wall-clock seconds,
// ending in a space.
func AppendProgressHead(dst []byte, elapsed time.Duration, done, total int) []byte {
	return fmt.Appendf(dst, "[%3d/%3d %6.1fs] ", done, total, elapsed.Seconds())
}

// ProgressTail is the part of a progress line that depends on the run
// alone: the scenario name and the run's throughput (or its error). The
// experiment service formats it once per cached result and renders each
// job's lines from it when they are read.
func ProgressTail(r Result) string {
	status := fmt.Sprintf("%.1fs %.0f ev/s", r.WallSec, r.EventsPerSec())
	if r.Err != "" {
		status = "ERROR: " + r.Err
	}
	return fmt.Sprintf("%-40s %s", r.Scenario.Name, status)
}

// Progress returns an OnProgress callback that writes one FormatProgress
// status line per completed run to w (typically os.Stderr). The writer is
// the injection point: CLIs pass a terminal, the service a per-job event
// log, tests a buffer.
func Progress(w io.Writer) func(done, total int, r Result) {
	start := time.Now()
	return func(done, total int, r Result) {
		fmt.Fprintln(w, FormatProgress(time.Since(start), done, total, r))
	}
}
