package svc

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"time"

	"nimbus/internal/runner"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// JobRunning: cells are executing (jobs start immediately on submit;
	// admission control is the per-job worker pool, not a serial queue,
	// so overlapping jobs share in-flight cells through the store).
	JobRunning JobState = "running"
	// JobDone: every cell completed (some may carry per-cell errors).
	JobDone JobState = "done"
	// JobCanceled: DELETE /jobs/{id} stopped the job; cells that had not
	// started report a canceled error, in-flight cells finished (their
	// results are cached).
	JobCanceled JobState = "canceled"
)

// CellCounts breaks a job's cells down by how they were (or will be)
// satisfied. Hit+Miss+Shared+Errors+Running+Pending == Total at all
// times.
type CellCounts struct {
	// Hit counts cells served from the cache (memory or disk tier).
	Hit int `json:"hit"`
	// Miss counts cells this job simulated.
	Miss int `json:"miss"`
	// Shared counts cells another in-flight job was already simulating.
	Shared int `json:"shared"`
	// Errors counts cells that completed with a per-cell error
	// (malformed scenario, cancellation).
	Errors int `json:"errors"`
	// Running counts cells currently executing.
	Running int `json:"running"`
	// Pending counts cells not yet started.
	Pending int `json:"pending"`
}

// JobStatus is the GET /jobs/{id} document.
type JobStatus struct {
	ID    string     `json:"id"`
	State JobState   `json:"state"`
	Total int        `json:"total"`
	Done  int        `json:"done"`
	Cells CellCounts `json:"cells"`
	// Events is the simulator events executed by this job's misses (cache
	// hits cost zero).
	Events uint64 `json:"events"`
	// ElapsedSec is wall-clock time since submission (frozen at
	// completion).
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Job is one submitted sweep: its expanded scenarios while it runs (a
// finished job waiting its turn in a restart's replay pass has none yet),
// per-cell progress, the growing event log, and — once done — its
// encoded result rows in submission order. A row the store cached is
// the store's own slice, shared with every job naming that cell, so per
// cell a finished job holds one slice header.
type Job struct {
	id     string
	scs    []runner.Scenario // nil while queued for a replay pass and once finished
	total  int
	cancel context.CancelFunc
	start  time.Time

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on any event-log or state change
	state   JobState
	cells   CellCounts
	done    int
	events  uint64
	elapsed time.Duration // frozen on completion
	rows    [][]byte      // runner.EncodeRow of each result; read-only
	// log is the progress lines, one per finished cell (done of them),
	// each ending in '\n'. Bytes once appended never change.
	log []byte
}

func newJob(id string, scs []runner.Scenario, cancel context.CancelFunc) *Job {
	j := &Job{id: id, scs: scs, total: len(scs), cancel: cancel, start: time.Now(), state: JobRunning}
	j.cells.Pending = len(scs)
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Status snapshots the job for GET /jobs/{id}.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := j.elapsed
	if j.state == JobRunning {
		elapsed = time.Since(j.start)
	}
	return JobStatus{
		ID: j.id, State: j.state, Total: j.total, Done: j.done,
		Cells: j.cells, Events: j.events, ElapsedSec: elapsed.Seconds(),
	}
}

// cellStarted moves one cell pending → running.
func (j *Job) cellStarted() {
	j.mu.Lock()
	j.cells.Pending--
	j.cells.Running++
	j.mu.Unlock()
}

// cellFinished retires a running cell with its outcome and appends the
// run's progress line to the event log. Cells cancelled before starting
// come through with started=false (they were never moved to running).
func (j *Job) cellFinished(started bool, oc Outcome, r runner.Result, line string) {
	j.mu.Lock()
	if started {
		j.cells.Running--
	} else {
		j.cells.Pending--
	}
	switch {
	case r.Err != "":
		j.cells.Errors++
	case oc == Miss:
		j.cells.Miss++
		j.events += r.Events
	case oc == Shared:
		j.cells.Shared++
	default:
		j.cells.Hit++
	}
	j.done++
	j.log = append(j.log, line...)
	j.log = append(j.log, '\n')
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish records the terminal state and the encoded result rows
// (submission order), drops the scenarios, and trims the log, which
// append grew with spare capacity, to its length.
func (j *Job) finish(state JobState, rows [][]byte) {
	j.mu.Lock()
	j.state = state
	j.rows = rows
	j.scs = nil
	j.log = slices.Clone(j.log)
	j.elapsed = time.Since(j.start)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Results blocks until the job reaches a terminal state, then returns its
// result rows (runner.EncodeRow bytes, submission order, one per
// scenario) for runner.WriteRows. The rows are shared: read-only. ctx
// aborts the wait.
func (j *Job) Results(ctx context.Context) ([][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The broadcast takes the lock so it cannot slip into the window
	// between a waiter's ctx check and its cond.Wait (a lost wakeup).
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	for j.state == JobRunning {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		j.cond.Wait()
	}
	return j.rows, nil
}

// StreamLog writes the job's event log to emit, skipping the first from
// complete lines, then following appends until the job reaches a
// terminal state and the log is drained. from=0 streams from the
// beginning; a resuming client passes the number of lines it already
// delivered, so the stream neither drops nor duplicates progress lines
// across a reconnect. Line counts (unlike byte offsets) survive a daemon
// restart, because a replayed job re-emits the same number of lines even
// though their text (tags, timings) differs. If from lines have not been
// emitted yet, StreamLog waits until they are (or the job ends). emit is
// called without the job lock held; returning an error stops the stream
// (a disconnected client). ctx also stops it.
func (j *Job) StreamLog(ctx context.Context, from int, emit func(chunk []byte) error) error {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	for j.done < from && j.state == JobRunning && ctx.Err() == nil {
		j.cond.Wait()
	}
	off := lineStart(j.log, from)
	j.mu.Unlock()
	for {
		j.mu.Lock()
		for off == len(j.log) && j.state == JobRunning && ctx.Err() == nil {
			j.cond.Wait()
		}
		chunk := j.log[off:]
		off = len(j.log)
		terminal := j.state != JobRunning
		j.mu.Unlock()
		if len(chunk) > 0 {
			if err := emit(chunk); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if terminal && len(chunk) == 0 {
			return nil
		}
	}
}

// lineStart returns the offset in log where line from starts, or
// len(log) — the live tail — when log holds fewer complete lines.
func lineStart(log []byte, from int) int {
	off := 0
	for ; from > 0; from-- {
		i := bytes.IndexByte(log[off:], '\n')
		if i < 0 {
			return len(log)
		}
		off += i + 1
	}
	return off
}
