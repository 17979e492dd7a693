package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nimbus/internal/runner"
	"nimbus/internal/svc"
)

// buildDaemon compiles cmd/nimbus-svc from the checkout's sources into
// outDir and returns the binary's path and the build's host time. The
// committed bin/ binaries are never used: they are whatever commit last
// refreshed them.
func buildDaemon(ctx context.Context, root, outDir string) (string, float64, error) {
	bin := filepath.Join(outDir, "nimbus-svc")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/nimbus-svc")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/nimbus-svc: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// daemon is one running nimbus-svc process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	readyMs float64 // exec → /readyz answering 200
	done    chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// controlClient talks to the daemon outside the measured request count:
// readiness polls, stats, metrics.
var controlClient = &http.Client{Timeout: 5 * time.Second}

// startDaemon execs the daemon on cacheDir and waits for /readyz. The
// process dies with ctx, and — through Pdeathsig — with the harness even
// if the harness is killed outright.
func startDaemon(ctx context.Context, bin, cacheDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.CommandContext(ctx, bin, "-listen", addr, "-cachedir", cacheDir,
		"-workers", fmt.Sprint(svcDaemonWorkers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	for {
		resp, err := controlClient.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyMs = time.Since(t0).Seconds() * 1e3
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("nimbus-svc exited before /readyz: %s", d.logTail())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		default:
		}
		if time.Since(t0) > 20*time.Second {
			d.kill()
			return nil, fmt.Errorf("nimbus-svc not ready after 20s: %s", d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon the hard way — the crash the journal exists for
// — and waits until the process is gone. Calling it again is harmless.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// usage reads the daemon's peak RSS and CPU time; call before kill.
func (d *daemon) usage() (rssMB, cpuS float64, err error) {
	rssMB, err = peakRSSMB(d.pid())
	if err != nil {
		return 0, 0, err
	}
	cpuS, err = procCPUSeconds(d.pid())
	return rssMB, cpuS, err
}

func (d *daemon) stats(ctx context.Context) (svc.StoreStats, svc.Metrics, error) {
	c := svc.NewClient(d.base)
	c.HTTP = controlClient
	m, err := c.Metrics(ctx)
	return m.Cache, m, err
}

// waitIdle blocks until the daemon has no running jobs: after a restart
// the journal's jobs re-resolve in the background, and the store
// counters are only final once they have.
func (d *daemon) waitIdle(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, m, err := d.stats(ctx)
		if err != nil {
			return err
		}
		if m.JobsRunning == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon still has %d running jobs after 30s", m.JobsRunning)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// countingTransport counts the requests the job clients send, so retries
// — which svc.Client performs silently — show up as requests beyond the
// four a job needs.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// requestsPerJob is what one job costs over HTTP with no retries:
// POST /jobs, GET events, the status check that ends the stream, GET
// results.
const requestsPerJob = 4

// firstWrite is the events sink: it discards progress lines and notes
// when the first arrived.
type firstWrite struct {
	t0    time.Time
	first time.Duration
	seen  bool
}

func (w *firstWrite) Write(b []byte) (int, error) {
	if !w.seen {
		w.seen, w.first = true, time.Since(w.t0)
	}
	return len(b), nil
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	submit     time.Duration // POST /jobs alone
	firstEvent time.Duration // POST sent → first progress line
	fetch      time.Duration // GET results of the finished job
	total      time.Duration // POST sent → results body fully read
	bytes      int
	cells      int
}

// jobCheck verifies one job's results document; idx is the job's index
// in the list the loop was given.
type jobCheck func(idx int, raw []byte, rs []runner.Result) string

// closedLoop pushes jobs through the daemon from svcClients clients,
// each sending its next job only after the previous job's results have
// arrived and been verified — the way nimbus-bench -remote drives it.
// order lists, per submission, which job of jobs to send. It returns the
// per-job timings in submission order and the number of HTTP requests
// the clients made.
func closedLoop(ctx context.Context, base string, jobs []runner.Grid, order []int, chk *checker, check jobCheck, rec *recorder, parent int) ([]jobTiming, int64) {
	tr := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     svcClients,
		MaxIdleConnsPerHost: svcClients,
	}}
	defer tr.base.(*http.Transport).CloseIdleConnections()
	timings := make([]jobTiming, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := svc.NewClient(base)
			client.HTTP = &http.Client{Transport: tr}
			client.Retry = svc.DefaultRetry
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				jt, why := runJob(ctx, client, jobs[order[i]], order[i], check, rec, parent, i)
				timings[i] = jt
				chk.op(why)
			}
		}()
	}
	wg.Wait()
	return timings, tr.n.Load()
}

// runJob is one job end to end: submit, follow the event stream to its
// end, fetch the results, verify them. It returns "" or why the job
// counts as failed.
func runJob(ctx context.Context, c *svc.Client, g runner.Grid, idx int, check jobCheck, rec *recorder, parent, seq int) (jobTiming, string) {
	var jt jobTiming
	unit := fmt.Sprintf("job%d", seq)
	t0 := time.Now()
	created, err := c.Submit(ctx, g, 0)
	jt.submit = time.Since(t0)
	if err != nil {
		return jt, fmt.Sprintf("%s: submit: %v", unit, err)
	}
	ev := &firstWrite{t0: t0}
	if err := c.StreamEvents(ctx, created.ID, ev); err != nil {
		return jt, fmt.Sprintf("%s: events: %v", unit, err)
	}
	t2 := time.Now()
	jt.firstEvent = ev.first
	raw, err := c.RawResults(ctx, created.ID)
	t3 := time.Now()
	jt.fetch = t3.Sub(t2)
	jt.total = t3.Sub(t0)
	if err != nil {
		return jt, fmt.Sprintf("%s: results: %v", unit, err)
	}
	jt.bytes, jt.cells = len(raw), created.Total

	why := ""
	rs, err := decodeResults(raw)
	switch {
	case err != nil:
		why = fmt.Sprintf("%s: %v", unit, err)
	case !ev.seen:
		why = fmt.Sprintf("%s: no progress line on the event stream", unit)
	case len(rs) != created.Total:
		why = fmt.Sprintf("%s: %d result rows for %d cells", unit, len(rs), created.Total)
	default:
		for _, r := range rs {
			if why = cellFailure(r); why != "" {
				break
			}
		}
		if why == "" {
			why = check(idx, raw, rs)
		}
	}
	if rec != nil {
		job := rec.add("svc.job", parent, unit, t0, time.Since(t0))
		rec.add("svc.submit", job, unit, t0, jt.submit)
		rec.add("svc.first_event", job, unit, t0.Add(jt.submit), ev.first-jt.submit)
		rec.add("svc.events_drain", job, unit, t0.Add(ev.first), t2.Sub(t0)-ev.first)
		rec.add("svc.results_fetch", job, unit, t2, jt.fetch)
		rec.add("verify", job, unit, t3, time.Since(t3))
	}
	return jt, why
}

// svcPass is one round of a daemon workload: set-up, then the timed
// closed loop, then the reconciliation of the daemon's own counters.
type svcPass struct {
	setup, wall float64
	docs        [][]byte // results document per unique job
	timings     []jobTiming
	stats       svc.StoreStats // what the timed part added, over the pass's daemons
	simWallSec  float64        // daemon sim_wall_sec the timed part added
	simEvents   uint64         // daemon sim_events the timed part added
	rssMB       float64
	cpuS        float64 // harness + daemon CPU over the timed part
	daemonCPU   float64 // the daemon's share of cpuS
	readyMs     float64 // the readiness wait the workload is about
	requests    int64
	simSeconds  float64 // simulated seconds delivered in the timed part
	httpRTTus   float64
	root        int // the pass's root span when traced
}

// svcEnv is what a daemon pass needs from its surroundings.
type svcEnv struct {
	ctx   context.Context
	bin   string
	tmp   string // scratch root for cache dirs and daemon logs
	seed  int64
	sizes svcSizes
	// probeRTT, set on the traced pass, measures GET /healthz round trips
	// against the live daemon before it is stopped.
	probeRTT bool
}

// retire reads a daemon's usage and counters into the pass, then kills
// it. base and baseCPU are the daemon's counters and CPU time when the
// timed part began (what set-up's pre-population cost): the expectation is checked against the
// absolute counters, the pass accumulates only what the timed part added.
func (p *svcPass) retire(ctx context.Context, d *daemon, chk *checker, want statsExpect, base svc.Metrics, baseCPU float64) {
	st, m, err := d.stats(ctx)
	if err != nil {
		chk.op("daemon metrics: " + err.Error())
	} else {
		chk.op(statsFailure(st, m, want))
		p.stats.MemHits += st.MemHits - base.Cache.MemHits
		p.stats.DiskHits += st.DiskHits - base.Cache.DiskHits
		p.stats.Misses += st.Misses - base.Cache.Misses
		p.stats.Shared += st.Shared - base.Cache.Shared
		p.stats.Evictions += st.Evictions - base.Cache.Evictions
		p.simWallSec += m.SimWallSec - base.SimWallSec
		p.simEvents += m.SimEvents - base.SimEvents
	}
	if rss, cpu, err := d.usage(); err != nil {
		chk.op("daemon usage: " + err.Error())
	} else {
		if rss > p.rssMB {
			p.rssMB = rss
		}
		p.daemonCPU += cpu - baseCPU
	}
	d.kill()
}

// healthzRTT is the median of n sequential GET /healthz round trips, µs.
func healthzRTT(base string, n int) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := controlClient.Get(base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(xs)
}

// svcColdPass: fresh cache directory, fresh daemon, every cell of every
// job simulated. ref, when non-nil, holds the reference pass's documents;
// every job must equal its reference byte for byte modulo wall_sec.
func svcColdPass(env svcEnv, chk *checker, ref [][]byte, rec *recorder) (svcPass, error) {
	var p svcPass
	t0 := time.Now()
	jobs := svcJobs(env.seed, env.sizes.coldJobs)
	dir, err := os.MkdirTemp(env.tmp, "cold-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(env.ctx, env.bin, filepath.Join(dir, "cache"), filepath.Join(dir, "daemon.log"))
	if err != nil {
		return p, err
	}
	defer d.kill()
	p.setup = time.Since(t0).Seconds()
	p.readyMs = d.readyMs

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	p.docs = make([][]byte, len(jobs))
	cells := uint64(0)
	var mu sync.Mutex
	check := func(idx int, raw []byte, rs []runner.Result) string {
		mu.Lock()
		p.docs[idx] = raw
		cells += uint64(len(rs))
		p.simSeconds += simSecondsOfResults(rs)
		mu.Unlock()
		if ref != nil && !sameModuloWall(raw, ref[idx]) {
			return fmt.Sprintf("job %d: results differ from the reference pass", idx)
		}
		return ""
	}
	t1, cpu1 := time.Now(), selfCPUSeconds()
	p.root = rec.begin("pass", noSpan, "")
	p.timings, p.requests = closedLoop(env.ctx, d.base, jobs, order, chk, check, rec, p.root)
	rec.end(p.root)
	p.wall = time.Since(t1).Seconds()
	p.cpuS = selfCPUSeconds() - cpu1
	if env.probeRTT {
		p.httpRTTus = healthzRTT(d.base, 200)
	}
	// Cold: every lookup is a miss, exactly one per unique cell.
	p.retire(env.ctx, d, chk, statsExpect{misses: cells, lookups: cells}, svc.Metrics{}, 0)
	p.cpuS += p.daemonCPU
	return p, env.ctx.Err()
}

// svcWarmPass: the cache is pre-populated in set-up; then nothing is
// simulated — svcWarmMemJobs resubmissions served from the memory tier, a
// kill, a restart on the same directory (journal replay), and
// svcWarmDiskJobs more served through the disk tier. Warm bytes must
// equal cold bytes raw: a cache hit is the original row, wall_sec and
// all.
func svcWarmPass(env svcEnv, chk *checker, ref [][]byte, rec *recorder) (svcPass, error) {
	var p svcPass
	t0 := time.Now()
	jobs := svcJobs(env.seed, env.sizes.warmUnique)
	dir, err := os.MkdirTemp(env.tmp, "warm-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	cacheDir, logPath := filepath.Join(dir, "cache"), filepath.Join(dir, "daemon.log")
	d, err := startDaemon(env.ctx, env.bin, cacheDir, logPath)
	if err != nil {
		return p, err
	}
	// d is replaced by the restarted daemon below; whichever is current
	// when the pass returns is killed (kill is idempotent).
	defer func() { d.kill() }()

	// Pre-population: the unique jobs, cold.
	p.docs = make([][]byte, len(jobs))
	unique := make([]int, len(jobs))
	for i := range unique {
		unique[i] = i
	}
	var mu sync.Mutex
	uniqueCells := uint64(0)
	fill := func(idx int, raw []byte, rs []runner.Result) string {
		mu.Lock()
		p.docs[idx] = raw
		uniqueCells += uint64(len(rs))
		mu.Unlock()
		if ref != nil && !sameModuloWall(raw, ref[idx]) {
			return fmt.Sprintf("job %d: pre-population results differ from the reference pass", idx)
		}
		return ""
	}
	closedLoop(env.ctx, d.base, jobs, unique, chk, fill, nil, noSpan)
	_, base, err := d.stats(env.ctx)
	if err != nil {
		return p, err
	}
	baseCPU, err := procCPUSeconds(d.pid())
	if err != nil {
		return p, err
	}
	p.setup = time.Since(t0).Seconds()
	if err := env.ctx.Err(); err != nil {
		return p, err
	}

	served := uint64(0)
	hit := func(idx int, raw []byte, rs []runner.Result) string {
		mu.Lock()
		served += uint64(len(rs))
		p.simSeconds += simSecondsOfResults(rs)
		mu.Unlock()
		if !bytes.Equal(raw, p.docs[idx]) {
			return fmt.Sprintf("job %d: warm results are not the cold bytes", idx)
		}
		return ""
	}
	roundRobin := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i % len(jobs)
		}
		return order
	}

	t1, cpu1 := time.Now(), selfCPUSeconds()
	root := rec.begin("pass", noSpan, "")
	p.root = root
	mem, reqs := closedLoop(env.ctx, d.base, jobs, roundRobin(env.sizes.warmMemJobs), chk, hit, rec, root)
	p.timings, p.requests = mem, reqs
	memServed := served
	// Memory tier: the misses are the pre-population's, every
	// resubmitted cell is a lookup that did not miss.
	p.retire(env.ctx, d, chk, statsExpect{misses: uniqueCells, lookups: uniqueCells + memServed}, base, baseCPU)

	sp := rec.begin("svc.restart", root, "")
	restarted, err := startDaemon(env.ctx, env.bin, cacheDir, logPath)
	rec.end(sp)
	if err != nil {
		return p, err
	}
	d = restarted
	p.readyMs = d.readyMs
	disk, reqs := closedLoop(env.ctx, d.base, jobs, roundRobin(env.sizes.warmDiskJobs), chk, hit, rec, root)
	rec.end(root)
	p.wall = time.Since(t1).Seconds()
	p.cpuS = selfCPUSeconds() - cpu1
	p.timings = append(p.timings, disk...)
	p.requests += reqs

	if env.probeRTT {
		p.httpRTTus = healthzRTT(d.base, 200)
	}
	// After the restart the journal's jobs (pre-population and memory
	// phase) re-resolve too. Each unique cell is read from disk exactly
	// once; every other lookup finds it in memory or in flight.
	if err := d.waitIdle(env.ctx); err != nil {
		chk.op("restart: " + err.Error())
	}
	p.retire(env.ctx, d, chk, statsExpect{
		diskHits: uniqueCells,
		lookups:  uniqueCells + served,
	}, svc.Metrics{}, 0)
	p.cpuS += p.daemonCPU
	return p, env.ctx.Err()
}

// localEquivalence re-runs a few jobs in this process and requires the
// daemon's bytes to equal a local runner.WriteJSON of the same grid
// modulo wall_sec: the daemon adds a cache and a queue, never a
// different answer.
func localEquivalence(jobs []runner.Grid, docs [][]byte, sample []int, chk *checker) {
	for _, idx := range sample {
		if idx >= len(jobs) || docs[idx] == nil {
			continue
		}
		local := runSimPass([]runner.Grid{jobs[idx]}, 1, chk, nil, nil)
		chk.checkSameBytes(fmt.Sprintf("job %d daemon vs local", idx), docs[idx], local.doc, false)
	}
}

// svcResults decodes every document of a pass into one row list.
func svcResults(docs [][]byte) []runner.Result {
	var all []runner.Result
	for _, d := range docs {
		if rs, err := decodeResults(d); err == nil {
			all = append(all, rs...)
		}
	}
	return all
}

type svcPassFunc func(svcEnv, *checker, [][]byte, *recorder) (svcPass, error)

// svcPassFor returns a daemon workload's pass and how many unique jobs
// it submits.
func svcPassFor(name string, sizes svcSizes) (svcPassFunc, int) {
	if name == "svc_warm" {
		return svcWarmPass, sizes.warmUnique
	}
	return svcColdPass, sizes.coldJobs
}

// runSvcUntraced measures a daemon workload's end-to-end metrics.
func runSvcUntraced(ctx context.Context, name string, opt options, root string) (*runResult, error) {
	res := newRunResult(name, opt)
	chk := &checker{}
	env, cleanup, err := newSvcEnv(ctx, root, opt)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	pass, uniqueJobs := svcPassFor(name, env.sizes)

	var setups, walls, rsss []float64
	var ref svcPass
	longest := 0.0 // s, the longest round so far
	for round := 0; opt.moreRounds(round, res.started, longest); round++ {
		begun := time.Now()
		var refDocs [][]byte
		if round > 0 {
			refDocs = ref.docs
		}
		p, err := pass(env, chk, refDocs, nil)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			ref = p
		}
		setups = append(setups, p.setup)
		walls = append(walls, p.wall)
		rsss = append(rsss, p.rssMB)
		longest = math.Max(longest, time.Since(begun).Seconds())
		logf("%s round %d: setup %.3fs pass %.3fs daemon peak rss %.1f MB", name, round, p.setup, p.wall, p.rssMB)
	}
	localEquivalence(svcJobs(opt.seed, uniqueJobs), ref.docs, []int{0, 1, 2}, chk)

	wall := fastest(walls)
	res.Rounds, res.PassWalls = len(walls), walls
	res.ResultsDigest = resultsDigest(ref.docs...)
	res.set("setup_s", median(setups), len(setups))
	res.set("wall_s", wall, len(walls))
	res.set("sim_s_per_wall_s", ref.simSeconds/wall, len(walls))
	res.set("peak_rss_mb", median(rsss), len(rsss))
	res.finish(chk)
	return res, nil
}

// newSvcEnv builds the daemon from source and makes the run's scratch
// directory; cleanup removes it.
func newSvcEnv(ctx context.Context, root string, opt options) (svcEnv, func(), error) {
	tmp, err := os.MkdirTemp("", "nimbus-benchmark-")
	if err != nil {
		return svcEnv{}, nil, err
	}
	cleanup := func() { os.RemoveAll(tmp) }
	bin, _, err := buildDaemon(ctx, root, tmp)
	if err != nil {
		cleanup()
		return svcEnv{}, nil, err
	}
	return svcEnv{ctx: ctx, bin: bin, tmp: tmp, seed: opt.seed, sizes: defaultSvcSizes}, cleanup, nil
}

// runSvcTraced produces a daemon workload's per-layer metrics: an
// untraced reference pass, a traced pass with a span per job phase, a
// local traced replay of a few jobs for the simulator-side layers, and
// the isolated probes.
func runSvcTraced(ctx context.Context, name string, opt options, root string) (*runResult, error) {
	res := newRunResult(name, opt)
	chk := &checker{}
	tb := time.Now()
	env, cleanup, err := newSvcEnv(ctx, root, opt)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	buildS := time.Since(tb).Seconds()
	pass, uniqueJobs := svcPassFor(name, env.sizes)
	rec := newRecorder()

	ref, err := pass(env, chk, nil, nil)
	if err != nil {
		return nil, err
	}
	env.probeRTT = true
	traced, err := pass(env, chk, ref.docs, rec)
	if err != nil {
		return nil, err
	}
	jobs := svcJobs(opt.seed, uniqueJobs)
	localEquivalence(jobs, ref.docs, []int{0, 1, 2}, chk)
	res.ResultsDigest = resultsDigest(ref.docs...)

	// The simulator-side layers, from a local traced replay of the
	// first jobs' cells.
	var sampleGrids []runner.Grid
	for i := 0; i < 8 && i < len(jobs); i++ {
		sampleGrids = append(sampleGrids, jobs[i])
	}
	sampleScs := expandAll(sampleGrids)
	local := runSimPass(sampleGrids, 1, chk, nil, rec)
	counts, mismatched := replayAll(sampleScs, local.results, 1, rec)
	chk.op(replayFailure(mismatched, len(sampleScs)))
	spans := rec.snapshot()
	runMs, collectUs := scenarioSpans(spans)
	sampleCells := float64(len(sampleScs))

	pr := runProbes()
	pr.apply(res)

	rows := svcResults(ref.docs)
	var cellWallMs []float64
	for _, r := range rows {
		cellWallMs = append(cellWallMs, r.WallSec*1e3)
	}
	var totalMs, submitMs, firstMs, fetchMs, encodeUs []float64
	sumLatency, bytes, cells := 0.0, 0.0, 0.0
	for _, jt := range ref.timings {
		totalMs = append(totalMs, jt.total.Seconds()*1e3)
		submitMs = append(submitMs, jt.submit.Seconds()*1e3)
		firstMs = append(firstMs, jt.firstEvent.Seconds()*1e3)
		fetchMs = append(fetchMs, jt.fetch.Seconds()*1e3)
		if jt.cells > 0 {
			encodeUs = append(encodeUs, jt.fetch.Seconds()*1e6/float64(jt.cells))
		}
		sumLatency += jt.total.Seconds()
		bytes += float64(jt.bytes)
		cells += float64(jt.cells)
	}
	nJobs := len(ref.timings)
	st := ref.stats
	lookups := float64(st.MemHits + st.DiskHits + st.Shared + st.Misses)

	res.set("sim.events", float64(ref.simEvents), len(rows))
	res.set("sim.events_per_sim_s", float64(ref.simEvents)/ref.simSeconds, len(rows))
	res.set("sim.run_until_ms", counts.run.Seconds()*1e3/sampleCells, len(sampleScs))
	res.set("exp.rig_build_us", counts.build.Seconds()*1e6/sampleCells, len(sampleScs))
	res.set("exp.collect_us", collectUs/sampleCells, len(sampleScs))
	res.set("exp.run_scenario_p50_ms", median(runMs), len(runMs))
	res.set("exp.run_scenario_p90_ms", percentileOrZero(runMs, 0.9), len(runMs))
	res.set("runner.expand_us_per_cell", measureExpandUs(jobs), len(rows))
	res.set("runner.key_ns", measureKeyNs(expandAll(jobs)), len(rows))
	res.set("runner.emit_us_per_cell", local.emit.Seconds()*1e6/sampleCells, len(sampleScs))
	res.set("runner.cell_wall_p50_ms", median(cellWallMs), len(cellWallMs))
	res.set("runner.cell_wall_p90_ms", percentileOrZero(cellWallMs, 0.9), len(cellWallMs))
	res.set("svc.submit_to_results_p50_ms", median(totalMs), nJobs)
	res.set("svc.submit_to_results_p90_ms", percentileOrZero(totalMs, 0.9), nJobs)
	res.set("svc.submit_to_results_p99_ms", percentileOrZero(totalMs, 0.99), nJobs)
	res.set("svc.first_event_p50_ms", median(firstMs), nJobs)
	res.set("svc.http_rtt_us", traced.httpRTTus, 200)
	res.set("svc.submit_p50_ms", median(submitMs), nJobs)
	res.set("svc.results_fetch_p50_ms", median(fetchMs), nJobs)
	res.set("svc.sim_wall_share", ref.simWallSec/sumLatency, nJobs)
	res.set("svc.overhead_ms_per_job", (sumLatency-ref.simWallSec)*1e3/float64(nJobs), nJobs)
	res.set("svc.store.mem_hits", float64(st.MemHits), 1)
	res.set("svc.store.disk_hits", float64(st.DiskHits), 1)
	res.set("svc.store.misses", float64(st.Misses), 1)
	res.set("svc.store.shared", float64(st.Shared), 1)
	res.set("svc.store.evictions", float64(st.Evictions), 1)
	res.set("svc.store.hit_ratio", (lookups-float64(st.Misses))/lookups, 1)
	res.set("svc.restart_ready_ms", ref.readyMs, 1)
	res.set("svc.encode_us_per_cell", median(encodeUs), len(encodeUs))
	res.set("svc.result_bytes_per_cell", bytes/cells, nJobs)
	res.set("svc.client_retries", float64(ref.requests-int64(nJobs)*requestsPerJob), nJobs)
	res.set("svc.daemon_cpu_s", ref.daemonCPU, 1)
	res.set("proc.cpu_s", ref.cpuS-ref.daemonCPU, 1)
	res.set("proc.cpu_util", ref.cpuS/ref.wall/2, 1)
	acc, nAcc := modeAccuracy(rows)
	res.set("core.mode_accuracy", acc, nAcc)
	res.set("trace.overhead_pct", (traced.wall-ref.wall)/ref.wall*100, 1)
	res.set("build.go_build_s", opt.buildSeconds+buildS, 1)

	res.WhereTimeGoes = selfTimes(subtree(spans, traced.root))
	res.Estimates = estimatesFor(res, pr, ref.simWallSec)
	if err := rec.write(traceFile(root, name)); err != nil {
		fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
	}
	res.Rounds = 1
	res.finish(chk)
	return res, nil
}
