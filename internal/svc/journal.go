package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"nimbus/internal/fault"
	"nimbus/internal/runner"
)

// Record is one entry of the daemon's job journal: a write-ahead log of
// job lifecycle edges, replayed on startup so submitted jobs survive a
// crash. Submit records carry everything needed to rebuild the job (the
// original grid — expansion is deterministic — and the requested worker
// count); cancel and done records carry only the id.
type Record struct {
	// Type is recSubmit, recCancel, or recDone.
	Type string `json:"t"`
	// ID is the job id the record applies to.
	ID string `json:"id"`
	// Grid is the submitted sweep (submit records only).
	Grid *runner.Grid `json:"grid,omitempty"`
	// Workers is the requested per-job pool size (submit records only;
	// 0 = the daemon default at replay time).
	Workers int `json:"workers,omitempty"`
	// State is the terminal state (done records only).
	State JobState `json:"state,omitempty"`
}

const (
	recSubmit = "submit"
	recCancel = "cancel"
	recDone   = "done"
)

// Journal is the append-only WAL the daemon replays on startup. One
// record per line of JSON, written with a single O_APPEND write (and an
// optional fsync) so a record is either wholly present or a torn tail
// that replay drops. It lives in its own directory under the cache dir
// (journal/wal) so cache pruning tools that delete *.json entries never
// touch it.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	fsync bool
	// dirty is set after a failed or torn append: the next successful
	// append starts with a newline so the partial line on disk becomes a
	// complete (corrupt, skipped-on-replay) record instead of merging
	// with the new one.
	dirty bool
	errs  atomic.Uint64
}

// OpenJournal opens (creating if needed) the journal in dir and replays
// whatever is already there: records are returned in append order,
// corrupt-but-complete lines are skipped, and a torn tail — the partial
// record of an append cut down by a crash — is dropped and truncated
// away so future appends start on a clean boundary. fsync makes every
// append crash-durable before it is acknowledged.
func OpenJournal(dir string, fsync bool) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("svc: journal dir: %w", err)
	}
	path := filepath.Join(dir, "wal")
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("svc: journal read: %w", err)
	}
	records, keep := replayRecords(b)
	if keep < len(b) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, nil, fmt.Errorf("svc: journal truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: journal open: %w", err)
	}
	return &Journal{f: f, fsync: fsync}, records, nil
}

// replayRecords parses newline-delimited JSON records. keep is the byte
// length of the longest newline-terminated prefix: everything past it is
// a torn tail. Complete lines that fail to parse (a torn append that a
// later append terminated, manual edits) are skipped but kept on disk.
func replayRecords(b []byte) (recs []Record, keep int) {
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator, the record never fully landed
		}
		line := b[off : off+nl]
		off += nl + 1
		keep = off
		var rec Record
		if len(line) == 0 || json.Unmarshal(line, &rec) != nil || rec.Type == "" || rec.ID == "" {
			continue
		}
		recs = append(recs, rec)
	}
	return recs, keep
}

// Append writes one record to the WAL: a single write of the marshaled
// line (plus fsync when configured), threaded through the
// "journal-append" failpoint. Errors are counted (surfaced as
// disk_errors in /metrics) and returned; the caller logs and keeps
// serving — losing durability for one edge beats refusing the job.
func (j *Journal) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("svc: journal marshal: %w", err)
	}
	line := append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dirty {
		// Terminate the partial line a previous failed append left, so
		// replay skips it as one corrupt record instead of swallowing
		// this record into it.
		line = append([]byte{'\n'}, line...)
	}
	if torn, ferr := fault.FireWrite("journal-append"); ferr != nil {
		if torn {
			j.f.Write(line[:len(line)/2])
		}
		j.dirty = true
		j.errs.Add(1)
		return fmt.Errorf("svc: journal append: %w", ferr)
	}
	if n, err := j.f.Write(line); err != nil {
		if n > 0 {
			j.dirty = true
		}
		j.errs.Add(1)
		return fmt.Errorf("svc: journal append: %w", err)
	}
	j.dirty = false
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			j.errs.Add(1)
			return fmt.Errorf("svc: journal fsync: %w", err)
		}
	}
	return nil
}

// Errors returns the count of failed appends since open.
func (j *Journal) Errors() uint64 { return j.errs.Load() }

// Close closes the WAL file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
