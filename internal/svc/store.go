// Package svc is the experiment service: a long-running daemon that
// accepts sweep jobs (a runner.Grid over HTTP/JSON), expands them to
// scenarios, and simulates only the cells whose results are not already
// cached. Results are content-addressed by runner.Scenario.CacheKey —
// canonical scenario key, effective seed, and the simulator's code
// version — the same idea named-data networks use to make data
// location-independent and shareable: any client submitting an
// overlapping grid hits the same cache entries, and concurrent
// submissions of the same cell share one in-flight simulation.
//
// The package splits into four pieces: Store (two-tier result cache),
// Job (one submitted sweep and its progress), Server (the HTTP surface,
// cmd/nimbus-svc wires it to exp.RunScenario), and Client (the typed
// consumer, used by nimbus-bench -remote). Server takes its RunFunc as
// configuration so the package — and its tests — stay free of the
// experiment layer.
package svc

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"nimbus/internal/fault"
	"nimbus/internal/runner"
)

// Outcome says where GetOrRun found (or put) a result.
type Outcome uint8

const (
	// Miss: no usable cached result; this caller ran the simulation.
	Miss Outcome = iota
	// HitMem: served from the in-memory LRU tier.
	HitMem
	// HitDisk: served from the on-disk tier (and promoted to memory).
	HitDisk
	// Shared: another caller was already simulating this key; this one
	// waited and shares its result without running anything.
	Shared
)

func (o Outcome) String() string {
	switch o {
	case HitMem:
		return "hit-mem"
	case HitDisk:
		return "hit-disk"
	case Shared:
		return "shared"
	}
	return "miss"
}

// StoreStats is a snapshot of the cache counters (GET /cache/stats).
type StoreStats struct {
	// MemHits / DiskHits / Misses / Shared count GetOrRun outcomes.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	Shared   uint64 `json:"shared"`
	// Evictions counts entries dropped from the memory tier (the disk
	// copy survives eviction).
	Evictions uint64 `json:"evictions"`
	// Corrupt counts disk entries rejected as unreadable — truncated
	// writes, foreign files, key mismatches — each treated as a miss and
	// rewritten.
	Corrupt uint64 `json:"corrupt"`
	// DiskErrors counts IO failures on the disk tier (reads that failed
	// for reasons other than absence, and writes that could not persist).
	// Each one degrades the store to pass-through for that operation —
	// the miss simulates, the result is still served and kept in memory —
	// instead of failing the cell.
	DiskErrors uint64 `json:"disk_errors"`
	// Inflight is the number of simulations currently running.
	Inflight int `json:"inflight"`
	// MemEntries is the current size of the memory tier.
	MemEntries int `json:"mem_entries"`
	// CodeVersion is the version component of every key this store
	// composes.
	CodeVersion string `json:"code_version"`
}

// entry is the on-disk envelope. Storing the full key (not just its hash)
// makes corruption and hash collisions detectable on read: an entry whose
// recorded key differs from the requested one is rejected as corrupt.
type entry struct {
	Key    string        `json:"key"`
	Result runner.Result `json:"result"`
}

// flight is one in-progress simulation that concurrent callers of the
// same key wait on.
type flight struct {
	done chan struct{}
	r    runner.Result
	rec  *cellRecord
}

// cellRecord is a finished cell as a job serves it: the result's
// runner.EncodeRow bytes and the tail of its progress line
// (runner.ProgressTail), both made once and read-only after. The store
// makes one per result it settles: a cached result's record is shared by
// every job that names the cell, an error row's by the jobs that waited
// on its flight.
type cellRecord struct {
	row  []byte
	tail string
}

// newCellRecord returns the record of r, whose row is row.
func newCellRecord(r runner.Result, row []byte) *cellRecord {
	return &cellRecord{row: row, tail: runner.ProgressTail(r)}
}

// Store is the two-tier content-addressed result cache: an in-memory LRU
// over an on-disk directory of <sha256(key)>.json files. Disk writes are
// atomic (temp file + rename in the same directory), so readers — and
// crashed writers — never observe a partial entry; unreadable entries are
// treated as misses and rewritten. GetOrRun deduplicates concurrent
// computes per key, so N clients submitting the same cell cost one
// simulation.
type Store struct {
	dir         string
	codeVersion string
	maxEntries  int

	// Fsync, when set (before serving), makes disk writes crash-durable:
	// the temp file is synced before the rename and the directory after
	// it, so a result acknowledged as cached survives power loss, not
	// just process death. Off by default — the rename alone already
	// guarantees no reader ever sees a partial entry.
	Fsync bool

	mu       sync.Mutex
	lru      *list.List // of *memEntry; front is most recent
	byKey    map[string]*list.Element
	inflight map[string]*flight
	stats    StoreStats
}

// memEntry is one memory-tier result beside its record (encoded row and
// progress tail), made once when the result entered the tier and shared
// read-only with every job that names the cell.
type memEntry struct {
	key string
	r   runner.Result
	rec *cellRecord
}

// NewStore opens (creating if needed) the cache directory. maxEntries
// bounds the memory tier only — the disk tier is bounded by the
// filesystem and pruned by deleting files (safe at any time; the store
// re-reads or re-simulates). maxEntries <= 0 selects a default of 4096.
func NewStore(dir string, maxEntries int, codeVersion string) (*Store, error) {
	if codeVersion == "" {
		return nil, fmt.Errorf("svc: empty code version would let a rebuild serve stale results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("svc: cache dir: %w", err)
	}
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Store{
		dir:         dir,
		codeVersion: codeVersion,
		maxEntries:  maxEntries,
		lru:         list.New(),
		byKey:       map[string]*list.Element{},
		inflight:    map[string]*flight{},
	}, nil
}

// Key composes the cache key for a scenario under this store's code
// version (runner.Scenario.CacheKey).
func (s *Store) Key(sc runner.Scenario) string {
	return sc.CacheKey(s.codeVersion)
}

// Path returns the on-disk address of a key: <dir>/<sha256(key)>.json.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// GetOrRun returns the cached result for key, or runs run() exactly once
// across all concurrent callers of the same key and caches its result.
// Error results (Result.Err != "") are returned but never cached: a
// malformed scenario stays an error, but a transient failure is not
// pinned forever. A result that cannot be encoded becomes such an error
// row (encodeRow). ctx cancels the wait of a sharing caller (the
// caller actually running the simulation completes it — a finished
// result is worth caching).
func (s *Store) GetOrRun(ctx context.Context, key string, run func() runner.Result) (runner.Result, Outcome) {
	r, _, oc := s.getOrRun(ctx, key, run)
	return r, oc
}

// getOrRun is GetOrRun that also returns the result's record: its
// runner.EncodeRow bytes and progress tail, made once when the result
// settled and shared by every caller, so read-only. rec is nil only for a
// canceled wait, whose error row the caller records itself.
func (s *Store) getOrRun(ctx context.Context, key string, run func() runner.Result) (r runner.Result, rec *cellRecord, oc Outcome) {
	s.mu.Lock()
	// Memory tier.
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*memEntry)
		s.stats.MemHits++
		s.mu.Unlock()
		return e.r, e.rec, HitMem
	}
	// Someone else is already computing this key: wait and share.
	if fl, ok := s.inflight[key]; ok {
		s.stats.Shared++
		s.mu.Unlock()
		select {
		case <-fl.done:
			return fl.r, fl.rec, Shared
		case <-ctx.Done():
			return runner.Result{Err: ctx.Err().Error()}, nil, Shared
		}
	}
	// Take the singleflight slot before touching disk, so two callers
	// never both read (or both re-simulate) the same entry.
	fl := &flight{done: make(chan struct{})}
	s.inflight[key] = fl
	s.stats.Inflight++
	s.mu.Unlock()

	var row []byte
	if disk, ok := s.readDisk(key); ok {
		r, row = encodeRow(disk)
		rec = newCellRecord(r, row)
		s.settle(key, fl, r, rec, HitDisk)
		return r, rec, HitDisk
	}

	r = run()
	enc, row := encodeRow(r)
	if r.Err == "" {
		// A result that does not encode is its encode error row from
		// here on. An error row whose row had to become the encode
		// error row keeps its own error in its line.
		r = enc
	}
	rec = newCellRecord(r, row)
	if r.Err == "" { // still: the row encoded
		if err := s.writeDisk(key, r); err != nil {
			// The result is still good; only persistence failed. Serve
			// it (and keep it in memory) rather than failing the cell.
			s.countDiskError()
			fmt.Fprintf(os.Stderr, "svc: cache write for %s: %v\n", s.Path(key), err)
		}
	}
	s.settle(key, fl, r, rec, Miss)
	return r, rec, Miss
}

// encodeRow returns r with its runner.EncodeRow bytes, copied to their
// length: json.MarshalIndent leaves a buffer twice the compact encoding,
// whose spare capacity the memory tier and every job sharing the row
// would hold as long as the row. A result that cannot be encoded — a NaN
// or Inf metric from a pluggable RunFunc — is
// replaced by the error row "encode: ...", returned with its own bytes,
// so no one caches, persists or serves a row that cannot be written. The
// error row always encodes: its scenario was expanded from a decoded
// grid, and JSON decodes no NaN or Inf.
func encodeRow(r runner.Result) (runner.Result, []byte) {
	row, err := runner.EncodeRow(r)
	if err != nil {
		r = runner.Result{Scenario: r.Scenario, Err: "encode: " + err.Error()}
		row, _ = runner.EncodeRow(r)
	}
	return r, slices.Clone(row)
}

// Get returns the cached result for key without computing anything:
// memory first, then disk (promoting to memory). It does not wait for
// in-flight computes.
func (s *Store) Get(key string) (runner.Result, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		r := el.Value.(*memEntry).r
		s.stats.MemHits++
		s.mu.Unlock()
		return r, true
	}
	s.mu.Unlock()
	r, ok := s.readDisk(key)
	var row []byte
	if ok {
		r, row = encodeRow(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok || r.Err != "" {
		s.stats.Misses++
		return runner.Result{}, false
	}
	s.stats.DiskHits++
	s.insertLocked(key, r, newCellRecord(r, row))
	return r, true
}

// settle publishes a flight's result and record to waiters, records the
// outcome, inserts into the memory tier when the result is cacheable (not
// an error row), and releases the singleflight slot.
func (s *Store) settle(key string, fl *flight, r runner.Result, rec *cellRecord, oc Outcome) {
	fl.r, fl.rec = r, rec
	close(fl.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, key)
	s.stats.Inflight--
	if r.Err == "" {
		s.insertLocked(key, r, rec)
	}
	if oc == HitDisk {
		s.stats.DiskHits++
	} else {
		s.stats.Misses++
	}
}

// insertLocked adds a result and its record to the memory tier, evicting
// from the cold end past maxEntries. Callers hold s.mu.
func (s *Store) insertLocked(key string, r runner.Result, rec *cellRecord) {
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*memEntry)
		e.r, e.rec = r, rec
		return
	}
	s.byKey[key] = s.lru.PushFront(&memEntry{key: key, r: r, rec: rec})
	for s.lru.Len() > s.maxEntries {
		cold := s.lru.Back()
		delete(s.byKey, cold.Value.(*memEntry).key)
		s.lru.Remove(cold)
		s.stats.Evictions++
	}
}

// readDisk loads a key's entry from the disk tier. Any failure —
// missing, truncated, unparseable, or recorded under a different key —
// is a miss; corrupt entries are counted and will be overwritten by the
// next writeDisk, and IO errors (including injected ones — the
// "disk-read" failpoint) additionally count as disk_errors. A failing
// disk therefore degrades the store to pass-through: misses simulate,
// jobs keep completing.
func (s *Store) readDisk(key string) (runner.Result, bool) {
	if err := fault.Fire(context.Background(), "disk-read"); err != nil {
		s.countDiskError()
		return runner.Result{}, false
	}
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.countDiskError()
		}
		return runner.Result{}, false
	}
	var e entry
	if json.Unmarshal(b, &e) != nil || e.Key != key {
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
		return runner.Result{}, false
	}
	return e.Result, true
}

// writeDisk persists an entry atomically: marshal, write to a temp file
// in the cache directory, rename onto the content address. Readers see
// the old bytes or the new bytes, never a prefix. With Fsync set the
// temp file is synced before the rename and the directory after it, so
// the entry also survives power loss. The "disk-write" failpoint fails
// the write (err mode) or — torn mode — leaves a truncated file at the
// final path, simulating a crash mid-write by a non-atomic writer; the
// key-verified read path must then reject it as corrupt.
func (s *Store) writeDisk(key string, r runner.Result) error {
	b, err := json.Marshal(entry{Key: key, Result: r})
	if err != nil {
		return err
	}
	if torn, ferr := fault.FireWrite("disk-write"); ferr != nil {
		if torn {
			os.WriteFile(s.Path(key), b[:len(b)/2], 0o644)
		}
		return ferr
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if s.Fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if s.Fsync {
		syncDir(s.dir)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable, not just
// ordered. Errors are ignored: some filesystems refuse directory fsync,
// and the write itself already succeeded.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// countDiskError bumps the disk_errors counter.
func (s *Store) countDiskError() {
	s.mu.Lock()
	s.stats.DiskErrors++
	s.mu.Unlock()
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = s.lru.Len()
	st.CodeVersion = s.codeVersion
	return st
}
