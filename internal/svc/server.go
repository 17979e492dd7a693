package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/fault"
	"nimbus/internal/runner"
)

// JobRequest is the POST /jobs body: a sweep grid plus an optional
// per-job worker count (0 inherits the server default).
type JobRequest struct {
	Grid    runner.Grid `json:"grid"`
	Workers int         `json:"workers,omitempty"`
}

// JobCreated is the POST /jobs response.
type JobCreated struct {
	ID string `json:"id"`
	// Total is the number of cells the grid expanded to.
	Total int `json:"total"`
}

// Metrics is the GET /metrics document: cache counters plus job-level
// aggregates and fault-tolerance counters for observability (the chaos
// CI job asserts on the latter).
type Metrics struct {
	Cache StoreStats `json:"cache"`
	// JobsSubmitted / JobsDone / JobsCanceled / JobsRunning count job
	// lifecycles since the daemon started.
	JobsSubmitted int `json:"jobs_submitted"`
	JobsDone      int `json:"jobs_done"`
	JobsCanceled  int `json:"jobs_canceled"`
	JobsRunning   int `json:"jobs_running"`
	// CellsSimulated / SimEvents / SimWallSec aggregate the cells that
	// actually ran (cache misses): total simulator events and the
	// wall-clock they took, summed over cells (not elapsed time — cells
	// run in parallel).
	CellsSimulated int     `json:"cells_simulated"`
	SimEvents      uint64  `json:"sim_events"`
	SimWallSec     float64 `json:"sim_wall_sec"`
	// EventsPerSec is SimEvents/SimWallSec: aggregate simulator
	// throughput per worker across everything this daemon computed.
	EventsPerSec float64 `json:"events_per_sec"`
	UptimeSec    float64 `json:"uptime_sec"`
	// DiskErrors aggregates IO failures across the store's disk tier and
	// the job journal. Nonzero means the daemon is degraded (serving by
	// simulating, journaling best-effort), not failing.
	DiskErrors uint64 `json:"disk_errors"`
	// WatchdogKills counts cells reaped by the per-cell watchdog.
	WatchdogKills int `json:"watchdog_kills"`
	// JobsShed counts submissions rejected with 429 under overload.
	JobsShed int `json:"jobs_shed"`
	// JournalReplayed counts jobs rebuilt from the journal at startup.
	JournalReplayed int `json:"journal_replayed"`
	// EventsResumed counts event streams that reconnected with ?from=N
	// (clients riding through a restart or connection loss).
	EventsResumed int `json:"events_resumed"`
}

// Server owns the job table and the HTTP surface. Run is the simulation
// entry point (cmd/nimbus-svc wires exp.RunScenario; tests wire stubs),
// so the package never imports the experiment layer.
type Server struct {
	// Store caches results; required.
	Store *Store
	// Run executes one scenario; required.
	Run runner.RunFunc
	// Canonical validates a submitted grid's spec strings and rewrites
	// them to their canonical spelling (cmd/nimbus-svc wires
	// exp.CanonicalGrid), so two spellings of one sweep share scenario
	// keys and cache entries, and a malformed spec is one 400 instead of
	// an error row per cell. It runs before the journal append, so Replay
	// re-expands the same cells. nil accepts grids as submitted.
	Canonical func(runner.Grid) (runner.Grid, error)
	// Workers is the default per-job worker pool (0 = all cores).
	Workers int
	// MaxCells rejects grids expanding past this many cells (0 = the
	// 1e6 default) so a typo'd sweep cannot OOM the daemon.
	MaxCells int
	// Journal, when set, records every job lifecycle edge (write-ahead on
	// submit) and is what Replay rebuilds the table from after a restart.
	// nil runs journal-less: jobs die with the process, as before.
	Journal *Journal
	// CellTimeout, when > 0, is the per-cell watchdog: a cell still
	// simulating after this wall-clock bound is reaped into an error row,
	// its singleflight waiters are released with that error, and the job
	// moves on. 0 disables the watchdog.
	CellTimeout time.Duration
	// MaxJobs, when > 0, sheds new submissions with 429 + Retry-After
	// while this many jobs are running — load shedding instead of
	// collapse. 0 is unbounded.
	MaxJobs int
	// MaxInflightCells, when > 0, sheds new submissions while the store
	// has at least this many simulations in flight. 0 is unbounded.
	MaxInflightCells int
	// Logf, if set, receives one line per job lifecycle edge.
	Logf func(format string, args ...any)

	ready atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*Job
	nextID  int
	started time.Time

	jobsDone, jobsCanceled int
	cellsSimulated         int
	simEvents              uint64
	simWallSec             float64

	watchdogKills   int
	jobsShed        int
	journalReplayed int
	eventsResumed   int
}

// maxJobBody bounds the POST /jobs request body: large enough for any
// sane grid document, small enough that a hostile client cannot balloon
// daemon memory with one request.
const maxJobBody = 8 << 20

// Handler returns the daemon's routing table. Every route below must be
// documented in docs/service.md — scripts/check_docs.sh diffs this
// function against the docs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxJobBody)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job request exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	if s.Canonical != nil {
		g, err := s.Canonical(req.Grid)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job request: %v", err)
			return
		}
		req.Grid = g
	}
	scs := req.Grid.Expand()
	if len(scs) == 0 {
		httpError(w, http.StatusBadRequest, "grid expanded to no scenarios")
		return
	}
	maxCells := s.MaxCells
	if maxCells == 0 {
		maxCells = 1_000_000
	}
	if len(scs) > maxCells {
		httpError(w, http.StatusBadRequest, "grid expanded to %d cells (limit %d)", len(scs), maxCells)
		return
	}
	if reason := s.shed(); reason != "" {
		// Load shedding, not collapse: tell the client when to come back
		// instead of queueing unboundedly and degrading every job.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "overloaded: %s; retry later", reason)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.Workers
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.nextID++
	id := strconv.Itoa(s.nextID)
	j := newJob(id, len(scs), cancel)
	if s.jobs == nil {
		s.jobs = map[string]*Job{}
	}
	s.jobs[id] = j
	s.mu.Unlock()

	// Write-ahead: the submission is journaled before the job starts, so
	// a crash at any later point replays it.
	s.appendJournal(Record{Type: recSubmit, ID: id, Grid: &req.Grid, Workers: req.Workers})
	s.logf("job %s: submitted, %d cells, %d workers", id, len(scs), workers)
	go s.runJob(ctx, j, scs, workers, false)
	writeJSON(w, http.StatusAccepted, JobCreated{ID: id, Total: len(scs)})
}

// shed decides whether to reject a new submission under overload,
// returning a human-readable reason (empty = admit). Both bounds are
// soft admission checks, not hard guarantees — two racing submissions
// may both pass — which is fine: the point is a bounded queue, not an
// exact one.
func (s *Server) shed() string {
	if s.MaxJobs > 0 {
		s.mu.Lock()
		running := s.nextID - s.jobsDone - s.jobsCanceled
		s.mu.Unlock()
		if running >= s.MaxJobs {
			s.countShed()
			return fmt.Sprintf("%d jobs already running (limit %d)", running, s.MaxJobs)
		}
	}
	if s.MaxInflightCells > 0 {
		if inflight := s.Store.Stats().Inflight; inflight >= s.MaxInflightCells {
			s.countShed()
			return fmt.Sprintf("%d cells already in flight (limit %d)", inflight, s.MaxInflightCells)
		}
	}
	return ""
}

func (s *Server) countShed() {
	s.mu.Lock()
	s.jobsShed++
	s.mu.Unlock()
}

// appendJournal records a lifecycle edge, degrading gracefully: a WAL
// failure costs crash-durability for that edge, never availability.
func (s *Server) appendJournal(rec Record) {
	if s.Journal == nil {
		return
	}
	if err := s.Journal.Append(rec); err != nil {
		s.logf("journal: %v (continuing without durability for this record)", err)
	}
}

// runJob executes a job's cells, scs, through the store: hits cost a lookup,
// misses simulate (deduplicated across concurrent jobs by the store's
// singleflight), and every completion appends the job's line entry for
// the progress line a local runner would print, tagged with how the cell
// was satisfied. The done edge is journaled unless doneJournaled says the
// journal already holds it (a finished job re-resolving after a restart).
func (s *Server) runJob(ctx context.Context, j *Job, scs []runner.Scenario, workers int, doneJournaled bool) {
	start := time.Now()
	n := len(scs)
	j.begin(n)
	// Written by the cell's own worker in the run closure, read by OnCell
	// for the same index in the same goroutine afterwards — no races.
	outcomes := make([]Outcome, n)
	started := make([]bool, n)
	recs := make([]*cellRecord, n)
	rn := &runner.Runner{Workers: workers}
	rn.OnCell = func(i int, r runner.Result) {
		rec := recs[i]
		if rec == nil {
			// No flight settled it: a cell canceled before it started,
			// or a shared wait the cancel cut short. Its record is the
			// job's own, made now so that every line renders at once.
			_, row := encodeRow(r)
			rec = newCellRecord(r, row)
		}
		j.cellFinished(i, started[i], outcomes[i], r, rec, time.Since(start))
		if started[i] && outcomes[i] == Miss && r.Err == "" {
			s.mu.Lock()
			s.cellsSimulated++
			s.simEvents += r.Events
			s.simWallSec += r.WallSec
			s.mu.Unlock()
		}
	}
	rn.RunGrid(ctx, scs, func(i int, sc runner.Scenario) runner.Result {
		started[i] = true
		j.cellStarted()
		r, rec, oc := s.Store.getOrRun(ctx, s.Store.Key(sc), func() runner.Result {
			// The watchdog gets a fresh context, not the job's: a
			// canceled job must not abort a cell other jobs may be
			// sharing (in-flight cells finish and cache). RunWatched
			// turns a panic into an error row here, inside the flight,
			// not only in the runner: a panicking scenario must still
			// settle the store's flight, or every job sharing this cell
			// would hang. Likewise a hung cell: the watchdog's error row
			// settles the flight, releasing every waiter.
			t0 := time.Now()
			r, reaped := runner.RunWatched(context.Background(), sc, s.CellTimeout, func(cctx context.Context) runner.Result {
				if err := fault.Fire(cctx, "cell-run"); err != nil {
					return runner.Result{Scenario: sc, Err: err.Error()}
				}
				return s.Run(sc)
			})
			if reaped {
				s.mu.Lock()
				s.watchdogKills++
				s.mu.Unlock()
				s.logf("job %s: watchdog reaped cell %s after %v", j.id, sc.Name, s.CellTimeout)
			}
			if r.WallSec == 0 {
				r.WallSec = time.Since(t0).Seconds()
			}
			return r
		})
		outcomes[i] = oc
		recs[i] = rec
		return r
	})
	state := JobDone
	if ctx.Err() != nil {
		state = JobCanceled
	}
	j.finish(state)
	s.mu.Lock()
	if state == JobCanceled {
		s.jobsCanceled++
	} else {
		s.jobsDone++
	}
	s.mu.Unlock()
	if !doneJournaled {
		s.appendJournal(Record{Type: recDone, ID: j.id, State: state})
	}
	st := j.Status()
	s.logf("job %s: %s in %.1fs — %d hit / %d miss / %d shared / %d errors",
		j.id, state, st.ElapsedSec, st.Cells.Hit, st.Cells.Miss, st.Cells.Shared, st.Cells.Errors)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	// ?from=N resumes the stream after the first N progress lines — the
	// self-healing client passes the count it has already delivered, so
	// a reconnect (or a daemon restart mid-job) neither drops nor
	// duplicates lines.
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad from offset %q", q)
			return
		}
		from = v
	}
	if from > 0 {
		s.mu.Lock()
		s.eventsResumed++
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	j.StreamLog(r.Context(), from, func(chunk []byte) error {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// handleResults blocks until the job completes, then joins its encoded
// rows with runner.WriteRows — the rows come from runner.EncodeRow, the
// encoder behind the batch CLIs' runner.WriteJSON, so for the same grid
// and seed the response is byte-identical to a local nimbus-bench run
// (the acceptance contract nimbus-bench -remote and the CI smoke
// verify). Nothing is encoded here.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	rows, err := j.Results(r.Context())
	if err != nil {
		// The client went away while waiting; nothing useful to write.
		return
	}
	w.Header().Set("Content-Type", "application/json")
	runner.WriteRows(w, rows)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	// Only a running job has anything to cancel: a DELETE on a finished
	// job changes nothing, so it journals nothing either (a cancel record
	// would make the next restart replay the job canceled).
	if j.requestCancel() {
		s.appendJournal(Record{Type: recCancel, ID: j.id})
		s.logf("job %s: cancel requested", j.id)
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the job table has been rebuilt from the
// journal and the daemon is accepting work. Load balancers and the chaos
// harness gate on this, not on /healthz, so a replaying daemon is not
// handed traffic early.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "not ready: journal replay in progress")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Store.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := Metrics{
		Cache:          s.Store.Stats(),
		JobsSubmitted:  s.nextID,
		JobsDone:       s.jobsDone,
		JobsCanceled:   s.jobsCanceled,
		JobsRunning:    s.nextID - s.jobsDone - s.jobsCanceled,
		CellsSimulated: s.cellsSimulated,
		SimEvents:      s.simEvents,
		SimWallSec:     s.simWallSec,

		WatchdogKills:   s.watchdogKills,
		JobsShed:        s.jobsShed,
		JournalReplayed: s.journalReplayed,
		EventsResumed:   s.eventsResumed,
	}
	if !s.started.IsZero() {
		m.UptimeSec = time.Since(s.started).Seconds()
	}
	s.mu.Unlock()
	if m.SimWallSec > 0 {
		m.EventsPerSec = float64(m.SimEvents) / m.SimWallSec
	}
	m.DiskErrors = m.Cache.DiskErrors
	if s.Journal != nil {
		m.DiskErrors += s.Journal.Errors()
	}
	writeJSON(w, http.StatusOK, m)
}

// Start stamps the uptime epoch; callers serving Handler() over a real
// listener call it once at boot.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = time.Now()
	s.mu.Unlock()
}

// SetReady flips /readyz to 200. The daemon calls it after Replay has
// rebuilt the job table.
func (s *Server) SetReady() { s.ready.Store(true) }

// Replay rebuilds the job table from journal records (as returned by
// OpenJournal) and resumes every journaled job, returning how many. Call
// it after Start and before serving traffic. Every job is registered,
// with its cell count, before Replay returns.
//
// Replay semantics:
//
//   - A job with no done record (pending or running at the crash)
//     starts at once and resumes exactly where the cache left it:
//     completed cells are disk hits, the rest simulate.
//   - A finished job (a done record) re-resolves through the cache —
//     every cacheable cell comes back byte-identical (cached rows keep
//     their original wall-clock), so GET /jobs/{id}/results keeps
//     answering across restarts. Error rows (never cached) re-run.
//     Finished jobs re-resolve one at a time, in journal order, in one
//     background pass; a queued job holds only its grid, as JSON bytes,
//     which is decoded and expanded when its turn comes, so the pass
//     never holds more than one finished job's cells. Their done edges
//     are already journaled and are not appended again, and they cannot
//     be canceled: a DELETE on a finished job changes nothing.
//   - A canceled job (cancel record, or done record in the canceled
//     state) replays with its context already canceled: every cell
//     reports a canceled error row, preserving the id and terminal state
//     without re-simulating work the operator threw away. A cancel
//     record after a done record in the done state is ignored: a build
//     that journaled a DELETE on a finished job wrote it.
func (s *Server) Replay(records []Record) int {
	type replayJob struct {
		grid     *runner.Grid
		workers  int
		canceled bool
		finished bool
	}
	byID := map[string]*replayJob{}
	var order []string
	for _, rec := range records {
		switch rec.Type {
		case recSubmit:
			if rec.Grid == nil || byID[rec.ID] != nil {
				continue
			}
			byID[rec.ID] = &replayJob{grid: rec.Grid, workers: rec.Workers}
			order = append(order, rec.ID)
		case recCancel:
			if rj := byID[rec.ID]; rj != nil && !rj.finished {
				rj.canceled = true
			}
		case recDone:
			if rj := byID[rec.ID]; rj != nil {
				rj.finished = true
				rj.canceled = rj.canceled || rec.State == JobCanceled
			}
		}
	}
	maxCells := s.MaxCells
	if maxCells == 0 {
		maxCells = 1_000_000
	}
	// Every canceled job replays on this one canceled context.
	canceled, cancelAll := context.WithCancel(context.Background())
	cancelAll()
	type queued struct {
		j       *Job
		ctx     context.Context
		grid    []byte // json.Marshal of the job's grid
		workers int
	}
	n := 0
	var pass []queued // the finished jobs, in journal order
	for _, id := range order {
		rj := byID[id]
		scs := safeExpand(rj.grid)
		if len(scs) == 0 || len(scs) > maxCells {
			s.logf("journal: skipping job %s (grid expands to %d cells)", id, len(scs))
			continue
		}
		workers := rj.workers
		if workers == 0 {
			workers = s.Workers
		}
		ctx, cancel := context.Background(), context.CancelFunc(nil)
		switch {
		case rj.canceled:
			ctx = canceled
		case !rj.finished:
			ctx, cancel = context.WithCancel(ctx)
		}
		s.mu.Lock()
		if num, err := strconv.Atoi(id); err == nil && num > s.nextID {
			s.nextID = num
		}
		if s.jobs == nil {
			s.jobs = map[string]*Job{}
		}
		j := newJob(id, len(scs), cancel)
		s.jobs[id] = j
		s.journalReplayed++
		s.mu.Unlock()
		s.logf("journal: replaying job %s (%d cells, canceled=%v)", id, len(scs), rj.canceled)
		n++
		if !rj.finished {
			go s.runJob(ctx, j, scs, workers, false)
			continue
		}
		// Queued for the pass below with only its grid's bytes: the
		// cells are decoded and expanded again when the job's turn
		// comes. The grid was decoded from JSON, so it encodes.
		grid, _ := json.Marshal(rj.grid)
		pass = append(pass, queued{j: j, ctx: ctx, grid: grid, workers: workers})
	}
	go func() {
		for i := range pass {
			q := pass[i]
			pass[i] = queued{} // the pass holds only the jobs still to come
			var g runner.Grid
			json.Unmarshal(q.grid, &g)
			s.runJob(q.ctx, q.j, safeExpand(&g), q.workers, true)
		}
	}()
	return n
}

// safeExpand expands a journaled grid, converting a panic (a record from
// an incompatible build) into an empty expansion instead of taking the
// daemon down during replay.
func safeExpand(g *runner.Grid) (scs []runner.Scenario) {
	defer func() { _ = recover() }()
	return g.Expand()
}
