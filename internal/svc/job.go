package svc

import (
	"context"
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

// Job is one submitted sweep: per-cell progress and, per finished cell,
// one record pointer and one 16-byte line entry (a finished job waiting
// its turn in a restart's replay pass has room for none yet). A record
// the store cached is the store's own, shared with every job naming that
// cell; the event stream's text is rendered from the records and entries
// when it is read. The scenarios belong to the goroutine that runs the
// job.
type Job struct {
	id    string
	total int
	start time.Time

	mu   sync.Mutex
	cond sync.Cond // on mu; broadcast on any line or state change
	// cancel stops the job; nil once used, once the job finished, and for
	// a replayed job that cannot be canceled again.
	cancel  context.CancelFunc
	state   JobState
	cells   CellCounts
	events  uint64
	elapsed time.Duration // frozen on completion
	// recs is each cell's record, by submission index, set when the cell
	// finishes; read-only.
	recs []*cellRecord
	// lines is the event log: one entry per finished cell, in completion
	// order. Entries once appended never change.
	lines []line
}

// line is one progress line of a job's event stream, kept as what
// renders it: when the cell finished, counted from the start of the
// job's run, which cell, and how it was satisfied.
type line struct {
	elapsed  time.Duration
	cell     int32
	outcome  Outcome
	canceled bool // the cell never started
}

// label is the line's tag: the cell's outcome, or "canceled".
func (l line) label() string {
	if l.canceled {
		return "canceled"
	}
	return l.outcome.String()
}

func newJob(id string, total int, cancel context.CancelFunc) *Job {
	j := &Job{id: id, total: total, cancel: cancel, start: time.Now(), state: JobRunning}
	j.cells.Pending = total
	j.cond.L = &j.mu
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
		ID: j.id, State: j.state, Total: j.total, Done: len(j.lines),
		Cells: j.cells, Events: j.events, ElapsedSec: elapsed.Seconds(),
	}
}

// begin readies a job to run its n cells: room for one record and one
// line each.
func (j *Job) begin(n int) {
	j.mu.Lock()
	j.recs = make([]*cellRecord, n)
	j.lines = make([]line, 0, n)
	j.mu.Unlock()
}

// cellStarted moves one cell pending → running.
func (j *Job) cellStarted() {
	j.mu.Lock()
	j.cells.Pending--
	j.cells.Running++
	j.mu.Unlock()
}

// cellFinished retires running cell i with its outcome and record and
// appends its line, elapsed after the start of the run. Cells cancelled
// before starting come through with started=false (they were never moved
// to running).
func (j *Job) cellFinished(i int, started bool, oc Outcome, r runner.Result, rec *cellRecord, elapsed time.Duration) {
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
	j.recs[i] = rec
	j.lines = append(j.lines, line{elapsed: elapsed, cell: int32(i), outcome: oc, canceled: !started})
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish records the terminal state and releases the cancel context.
func (j *Job) finish(state JobState) {
	j.mu.Lock()
	j.state = state
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.elapsed = time.Since(j.start)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// requestCancel cancels a running job and reports whether it did: a job
// that finished, or was already canceled, is left as it is.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning || j.cancel == nil {
		return false
	}
	j.cancel()
	j.cancel = nil
	return true
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
	rows := make([][]byte, len(j.recs))
	for i, rec := range j.recs {
		rows[i] = rec.row
	}
	return rows, nil
}

// StreamLog writes the job's event log to emit, skipping the first from
// lines, then following new lines until the job reaches a terminal state
// and the log is drained. from=0 streams from the beginning; a resuming
// client passes the number of lines it already delivered, so the stream
// neither drops nor duplicates progress lines across a reconnect. Line
// counts (unlike byte offsets) survive a daemon restart, because a
// replayed job re-emits the same number of lines even though their text
// (tags, timings) differs. If from lines have not been emitted yet,
// StreamLog waits until they are (or the job ends). Lines are rendered
// here, from the job's line entries and cell records. emit is called
// without the job lock held and must not keep chunk past the call;
// returning an error stops the stream (a disconnected client). ctx also
// stops it.
func (j *Job) StreamLog(ctx context.Context, from int, emit func(chunk []byte) error) error {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	next := from
	var chunk []byte
	for {
		j.mu.Lock()
		for len(j.lines) <= next && j.state == JobRunning && ctx.Err() == nil {
			j.cond.Wait()
		}
		// Entries and records up to len(lines) are written once, under
		// the lock, before the line is appended: they are read here
		// without it.
		lines, recs := j.lines, j.recs
		terminal := j.state != JobRunning
		j.mu.Unlock()
		if next < len(lines) {
			chunk = j.render(chunk[:0], lines[next:], next, recs)
			next = len(lines)
			if err := emit(chunk); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if terminal {
			return nil
		}
	}
}

// render appends lines, the first of which is line first of the log
// (from 0), as runner.FormatProgress lines tagged with their label.
func (j *Job) render(dst []byte, lines []line, first int, recs []*cellRecord) []byte {
	for k, l := range lines {
		dst = runner.AppendProgressHead(dst, l.elapsed, first+k+1, j.total)
		dst = append(dst, recs[l.cell].tail...)
		dst = append(dst, "  ["...)
		dst = append(dst, l.label()...)
		dst = append(dst, "]\n"...)
	}
	return dst
}
