// Command nimbus-svc is the experiment daemon: it accepts sweep jobs (a
// runner.Grid as JSON) over HTTP, expands them to scenarios, and runs
// only the cells whose content-addressed cache key misses. Results are
// keyed by canonical scenario key + effective seed + code version, stored
// in a two-tier cache (in-memory LRU over <cachedir>/<sha256(key)>.json),
// and deduplicated in flight — concurrent clients submitting overlapping
// grids share one simulation per cell. docs/service.md documents the API;
// nimbus-bench -remote is the standard client.
//
// The daemon is crash-safe: every job submission is journaled
// (write-ahead) to <cachedir>/journal/wal before it starts, and on boot
// the journal is replayed — jobs pending at a crash resume, completed
// ids keep answering. -fsync makes journal and cache writes durable
// before acknowledgment; -failpoints injects faults for chaos testing.
//
// Usage:
//
//	nimbus-svc -listen 127.0.0.1:9037 -cachedir ~/.cache/nimbus-svc
//	nimbus-svc -cachedir /tmp/c -workers 8 -cache-entries 16384
//	nimbus-svc -code-version v-test     # override the build hash (tests, migrations)
//	nimbus-svc -fsync -cell-timeout 5m -max-jobs 64
//	nimbus-svc -failpoints 'disk-write=err:0.5,cell-run=hang:1'   # chaos testing
//	nimbus-svc -pprof                   # profiling endpoints at /debug/pprof/
//
// Endpoints: POST /jobs, GET /jobs/{id}, GET /jobs/{id}/events,
// GET /jobs/{id}/results, DELETE /jobs/{id}, GET /cache/stats,
// GET /metrics, GET /healthz, GET /readyz (and, with -pprof, the
// net/http/pprof handlers under /debug/pprof/).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/fault"
	"nimbus/internal/svc"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:9037", "address to serve the HTTP API on")
		cachedir     = flag.String("cachedir", defaultCacheDir(), "directory for the on-disk result cache (created if missing)")
		cacheEntries = flag.Int("cache-entries", 4096, "in-memory cache tier size, entries (the disk tier is unbounded)")
		workers      = flag.Int("workers", 0, "default per-job worker pool size (0 = all cores; jobs may override per submission)")
		maxCells     = flag.Int("max-cells", 1_000_000, "reject grids expanding to more cells than this")
		codeVersion  = flag.String("code-version", "", "override the cache key's code-version component (default: hash of this executable)")
		fsync        = flag.Bool("fsync", false, "fsync journal appends and cache writes before acknowledging (crash-durable; slower)")
		failpoints   = flag.String("failpoints", "", "comma-separated fault injections, e.g. 'disk-write=err:0.5,cell-run=hang:1' (chaos testing only)")
		cellTimeout  = flag.Duration("cell-timeout", 0, "per-cell watchdog: reap a cell still simulating after this long (0 = no watchdog)")
		maxJobs      = flag.Int("max-jobs", 0, "shed new submissions with 429 while this many jobs are running (0 = unbounded)")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/ (off by default; enable only on trusted networks)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "nimbus-svc: ", log.LstdFlags)
	if *failpoints != "" {
		if err := fault.Set(*failpoints); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		logger.Printf("FAULT INJECTION ARMED: %s", *failpoints)
	}

	version := *codeVersion
	if version == "" {
		version = svc.CodeVersion()
	}
	store, err := svc.NewStore(*cachedir, *cacheEntries, version)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	store.Fsync = *fsync

	journal, records, err := svc.OpenJournal(filepath.Join(*cachedir, "journal"), *fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer journal.Close()

	server := &svc.Server{
		Store:       store,
		Run:         exp.RunScenario,
		Canonical:   exp.CanonicalGrid,
		Workers:     *workers,
		MaxCells:    *maxCells,
		Journal:     journal,
		CellTimeout: *cellTimeout,
		MaxJobs:     *maxJobs,
		Logf:        logger.Printf,
	}
	server.Start()
	if n := server.Replay(records); n > 0 {
		logger.Printf("journal: replayed %d job(s) from %d record(s)", n, len(records))
	}
	server.SetReady()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	logger.Printf("serving on http://%s (cache %s, code version %s)", ln.Addr(), *cachedir, version)

	handler := server.Handler()
	if *pprofOn {
		// Explicit pprof routes on a fresh mux (not DefaultServeMux), so
		// nothing else registered globally leaks onto the daemon's port.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Printf("pprof endpoints enabled at /debug/pprof/")
	}

	hs := &http.Server{
		Handler: handler,
		// Bounds how long a client may dribble headers, so stalled or
		// hostile connections cannot pin accept slots forever.
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case <-ctx.Done():
		logger.Printf("shutting down")
		// In-flight requests (a long results wait, a streaming events
		// reader) get a bounded grace period; the cache is already
		// consistent on disk at every instant thanks to atomic writes.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}
	return 0
}

// defaultCacheDir puts the cache under the user cache root when known,
// falling back to a project-local directory (useful in containers where
// HOME is unset).
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return dir + "/nimbus-svc"
	}
	return ".nimbus-svc-cache"
}
