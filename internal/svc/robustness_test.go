package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/fault"
	"nimbus/internal/runner"
)

// TestJournalReplayTornTail: OpenJournal returns complete records in
// order, skips corrupt-but-complete lines, and truncates the torn tail a
// crash mid-append leaves, so subsequent appends land on a clean
// boundary.
func TestJournalReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	g := smallGrid()
	var wal bytes.Buffer
	mustLine := func(rec Record) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(b)
		wal.WriteByte('\n')
	}
	mustLine(Record{Type: recSubmit, ID: "1", Grid: &g})
	wal.WriteString("garbage{{{not json\n") // corrupt complete line: skipped
	wal.WriteString("{\"t\":\"done\"}\n")   // missing id: skipped
	mustLine(Record{Type: recDone, ID: "1", State: JobDone})
	complete := wal.Len()
	wal.WriteString(`{"t":"submit","id":"2","gri`) // torn tail: dropped + truncated

	path := filepath.Join(dir, "wal")
	if err := os.WriteFile(path, wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[0].ID != "1" || recs[1].Type != recDone {
		t.Fatalf("replayed %+v, want the submit and done records for job 1", recs)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(complete) {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), complete)
	}
	// Appends after a torn-tail recovery land on a clean boundary.
	if err := j.Append(Record{Type: recCancel, ID: "1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs2, err := OpenJournal(dir, true) // fsync path exercises the same replay
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 || recs2[2].Type != recCancel {
		t.Fatalf("after append, replay = %+v, want 3 records ending in cancel", recs2)
	}
}

// TestJournalTornAppendRecovery: a fault-injected torn append (half the
// line persisted, then "crash") is counted, and the next successful
// append terminates the partial line so replay loses exactly the torn
// record — never a neighbor.
func TestJournalTornAppendRecovery(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: recSubmit, ID: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Set("journal-append=torn:1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: recSubmit, ID: "2"}); err == nil {
		t.Fatal("torn append reported success")
	}
	if j.Errors() != 1 {
		t.Fatalf("Errors() = %d, want 1", j.Errors())
	}
	fault.Reset()
	if err := j.Append(Record{Type: recSubmit, ID: "3"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "1" || recs[1].ID != "3" {
		t.Fatalf("replay after torn append = %+v, want records 1 and 3 (2 lost, not merged)", recs)
	}
}

// TestServerJournalReplay is the crash/restart acceptance test: a daemon
// with a journal is "killed" (server torn down, journal reopened), and
// the replacement replays the journal — the completed job's id still
// answers with byte-identical results, the canceled job replays
// canceled, and new ids continue past the old ones.
func TestServerJournalReplay(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journalDir := filepath.Join(dir, "journal")
	ctx := context.Background()

	var block atomic.Bool
	release := make(chan struct{})
	run := func(sc runner.Scenario) runner.Result {
		if block.Load() {
			<-release
		}
		return stubRun(sc)
	}

	journal1, recs, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	srv1 := &Server{Store: newTestStore(t, cacheDir, 64, "test-v1"), Run: run, Workers: 2, Journal: journal1}
	srv1.Start()
	hs1 := httptest.NewServer(srv1.Handler())
	client1 := NewClient(hs1.URL)

	// Job 1 completes normally.
	created1, err := client1.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := client1.RawResults(ctx, created1.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 (a different grid, so its cells miss and block) is canceled
	// mid-flight.
	block.Store(true)
	g2 := smallGrid()
	g2.Base.Seed = 7
	created2, err := client1.Submit(ctx, g2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Cancel(ctx, created2.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := client1.Results(ctx, created2.ID); err != nil {
		t.Fatal(err)
	}

	// "Crash": tear the daemon down and bring a new one up over the same
	// cache dir and journal.
	hs1.Close()
	journal1.Close()
	journal2, recs, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &Server{Store: newTestStore(t, cacheDir, 64, "test-v1"), Run: stubRun, Workers: 2, Journal: journal2}
	srv2.Start()
	if n := srv2.Replay(recs); n != 2 {
		t.Fatalf("Replay resumed %d jobs, want 2 (records: %+v)", n, recs)
	}
	srv2.SetReady()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	client2 := NewClient(hs2.URL)

	// The completed job's id answers across the restart, byte-identically:
	// every cell resolves from the disk cache.
	raw1b, err := client2.RawResults(ctx, created1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw1b) {
		t.Fatalf("results changed across restart:\nbefore: %s\nafter:  %s", raw1, raw1b)
	}
	st1, err := client2.Status(ctx, created1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != JobDone || st1.Cells.Miss != 0 {
		t.Fatalf("replayed done job %+v, want done with zero re-simulation", st1)
	}

	// The canceled job replays canceled: id and terminal state preserved,
	// no work re-simulated.
	rs2, err := client2.Results(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client2.Status(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobCanceled {
		t.Fatalf("replayed canceled job state %q, want canceled", st2.State)
	}
	for _, r := range rs2 {
		if !strings.Contains(r.Err, "canceled") {
			t.Fatalf("replayed canceled job has a non-canceled row: %+v", r)
		}
	}

	// Ids continue past the journaled ones — no collisions after restart.
	created3, err := client2.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if created3.ID != "3" {
		t.Fatalf("first post-restart id = %q, want 3", created3.ID)
	}
	if _, err := client2.RawResults(ctx, created3.ID); err != nil {
		t.Fatal(err)
	}
	m, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JournalReplayed != 2 {
		t.Fatalf("metrics journal_replayed = %d, want 2", m.JournalReplayed)
	}
}

// bootJournaled brings a daemon up over cacheDir and the journal in
// journalDir, replaying whatever the journal holds, as nimbus-svc does at
// startup. It returns the server, a client for it and the replay count.
func bootJournaled(t *testing.T, cacheDir, journalDir string, run runner.RunFunc) (*Server, *Client, int) {
	t.Helper()
	journal, recs, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	srv := &Server{Store: newTestStore(t, cacheDir, 64, "test-v1"), Run: run, Workers: 2, Journal: journal}
	srv.Start()
	n := srv.Replay(recs)
	srv.SetReady()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL), n
}

// serverJob is srv's job id, or nil.
func serverJob(srv *Server, id string) *Job {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.jobs[id]
}

// tableRow is what one job of a job table answers once it has finished.
type tableRow struct {
	Status JobStatus // ElapsedSec zeroed
	Raw    string    // the GET /jobs/{id}/results body
}

// jobTable waits for every job of srv to finish and returns the table.
func jobTable(t *testing.T, srv *Server) map[string]tableRow {
	t.Helper()
	srv.mu.Lock()
	jobs := maps.Clone(srv.jobs)
	srv.mu.Unlock()
	table := map[string]tableRow{}
	for id, j := range jobs {
		rows, err := j.Results(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		runner.WriteRows(&raw, rows)
		st := j.Status()
		st.ElapsedSec = 0
		table[id] = tableRow{st, raw.String()}
	}
	return table
}

// readWAL is the journal's bytes, waiting until they hold lines records:
// a done edge is appended just after the job's results are published.
func readWAL(t *testing.T, journalDir string, lines int) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := os.ReadFile(filepath.Join(journalDir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(b, []byte("\n")) >= lines || time.Now().After(deadline) {
			return b
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayIsIdempotent: restarting twice over the same cache and
// journal rebuilds the same job table — ids, states, totals, cell counts,
// raw results — and neither replay appends to the journal: every job in
// it had finished, so its done edge is already there.
func TestReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journalDir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	ctx := context.Background()

	// First life: two finished jobs and one canceled mid-flight — submit,
	// done, submit, done, submit, cancel, done.
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	_, client, _ := bootJournaled(t, cacheDir, journalDir, func(sc runner.Scenario) runner.Result {
		if sc.Seed == 7 {
			entered <- struct{}{}
			<-release
		}
		return stubRun(sc)
	})
	g := smallGrid()
	for _, rate := range []float64{48, 24} {
		g.RatesMbps = []float64{rate}
		created, err := client.Submit(ctx, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RawResults(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
	}
	g.Base.Seed = 7
	created, err := client.Submit(ctx, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := client.Cancel(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := client.RawResults(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	wal0 := readWAL(t, journalDir, 7)

	var tables [2]map[string]tableRow
	for k := range tables {
		srv, _, n := bootJournaled(t, cacheDir, journalDir, stubRun)
		if n != 3 {
			t.Fatalf("restart %d replayed %d jobs, want 3", k+1, n)
		}
		tables[k] = jobTable(t, srv)
		if wal := readWAL(t, journalDir, 7); !bytes.Equal(wal, wal0) {
			t.Fatalf("restart %d changed the journal:\nbefore:\n%s\nafter:\n%s", k+1, wal0, wal)
		}
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Fatalf("the two restarts' job tables differ:\n%+v\n%+v", tables[0], tables[1])
	}
	if st := tables[0][created.ID].Status; st.State != JobCanceled || st.Cells.Errors != st.Total {
		t.Fatalf("canceled job replayed as %+v", st)
	}
	for _, id := range []string{"1", "2"} {
		if st := tables[0][id].Status; st.State != JobDone || st.Cells.Hit != st.Total {
			t.Fatalf("finished job %s replayed as %+v, want done from the cache", id, st)
		}
	}
}

// TestCancelAfterDoneSurvivesReplay: a DELETE on a finished job changes
// nothing, then or after a restart. It journals no cancel record, and a
// cancel record after the done record (as an older build journaled such
// a DELETE) is ignored by replay: across two restarts the job reads done
// with the same raw results, and neither restart appends to the journal.
func TestCancelAfterDoneSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journalDir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	ctx := context.Background()
	_, client, _ := bootJournaled(t, cacheDir, journalDir, stubRun)
	created, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := client.RawResults(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	wal0 := readWAL(t, journalDir, 2)
	st, err := client.Cancel(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("DELETE on a finished job reads %+v, want done", st)
	}
	if got, _ := client.RawResults(ctx, created.ID); !bytes.Equal(got, raw) {
		t.Fatalf("DELETE on a finished job changed its results:\n%s\n%s", raw, got)
	}
	if wal := readWAL(t, journalDir, 2); !bytes.Equal(wal, wal0) {
		t.Fatalf("DELETE on a finished job was journaled:\n%s", wal)
	}

	journal, _, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Append(Record{Type: recCancel, ID: created.ID}); err != nil {
		t.Fatal(err)
	}
	journal.Close()
	wal1 := readWAL(t, journalDir, 3)

	var statuses [2]JobStatus
	for k := range statuses {
		_, client, n := bootJournaled(t, cacheDir, journalDir, stubRun)
		if n != 1 {
			t.Fatalf("restart %d replayed %d jobs, want 1", k+1, n)
		}
		got, err := client.RawResults(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("restart %d changed the results:\n%s\n%s", k+1, raw, got)
		}
		if statuses[k], err = client.Status(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
		statuses[k].ElapsedSec = 0
		if st := statuses[k]; st.State != JobDone || st.Cells.Errors != 0 {
			t.Fatalf("restart %d: the job reads %+v, want done without errors", k+1, st)
		}
		if wal := readWAL(t, journalDir, 3); !bytes.Equal(wal, wal1) {
			t.Fatalf("restart %d changed the journal:\nbefore:\n%s\nafter:\n%s", k+1, wal1, wal)
		}
	}
	if statuses[0] != statuses[1] {
		t.Fatalf("the two restarts' statuses differ:\n%+v\n%+v", statuses[0], statuses[1])
	}
}

// TestReplayRunsFinishedJobsLazily: after a restart the finished jobs
// re-resolve one at a time in journal order, and a job waiting its turn
// holds no cells. While the first finished job blocks (its cache entries
// were pruned), every later one has no room for cells yet and reads all
// cells pending. The job the crash interrupted does not wait behind them, and
// its done edge is the only record the replay appends.
func TestReplayRunsFinishedJobsLazily(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journalDir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	ctx := context.Background()

	// Before the crash: four jobs ran, seeds 11-14, and the journal holds
	// all four submissions but the last job's done edge. The daemon that
	// ran them journals elsewhere; this test writes the journal itself.
	beforeSrv, before, _ := bootJournaled(t, cacheDir, filepath.Join(dir, "own-journal"), stubRun)
	journal, _, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string][]byte{}
	var grids []runner.Grid
	for k := 0; k < 4; k++ {
		g := smallGrid()
		g.Base.Seed = int64(11 + k)
		created, err := before.Submit(ctx, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if raw[created.ID], err = before.RawResults(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
		recs := []Record{{Type: recSubmit, ID: created.ID, Grid: &g}}
		if k < 3 {
			recs = append(recs, Record{Type: recDone, ID: created.ID, State: JobDone})
		}
		for _, rec := range recs {
			if err := journal.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		grids = append(grids, g)
	}
	journal.Close()
	wal0 := readWAL(t, journalDir, 7)
	// The first job's cells are pruned from the cache, so they simulate.
	store := beforeSrv.Store
	for _, sc := range grids[0].Expand() {
		if err := os.Remove(store.Path(store.Key(sc))); err != nil {
			t.Fatal(err)
		}
	}

	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	entered := make(chan struct{}, 16)
	srv, _, n := bootJournaled(t, cacheDir, journalDir, func(sc runner.Scenario) runner.Result {
		if sc.Seed == 11 {
			entered <- struct{}{}
			<-release
		}
		return stubRun(sc)
	})
	if n != 4 {
		t.Fatalf("replayed %d jobs, want 4", n)
	}
	<-entered

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rows, err := serverJob(srv, "4").Results(wctx)
	if err != nil {
		t.Fatal("the interrupted job waited behind the finished jobs")
	}
	var got bytes.Buffer
	runner.WriteRows(&got, rows)
	if !bytes.Equal(got.Bytes(), raw["4"]) {
		t.Fatalf("interrupted job's results changed across the restart:\n%s\n%s", raw["4"], got.Bytes())
	}
	for _, id := range []string{"2", "3"} {
		j := serverJob(srv, id)
		j.mu.Lock()
		holds := j.recs != nil || j.lines != nil
		j.mu.Unlock()
		if holds {
			t.Fatalf("queued finished job %s holds room for its cells", id)
		}
		if st := j.Status(); st.State != JobRunning || st.Total != 4 || st.Cells.Pending != st.Total {
			t.Fatalf("queued finished job %s reads %+v, want running with every cell pending", id, st)
		}
	}

	unblock()
	for id, want := range raw {
		rows, err := serverJob(srv, id).Results(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got.Reset()
		runner.WriteRows(&got, rows)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("job %s's results changed across the restart:\n%s\n%s", id, want, got.Bytes())
		}
	}
	done4, _ := json.Marshal(Record{Type: recDone, ID: "4", State: JobDone})
	want := append(append(wal0, done4...), '\n')
	if wal := readWAL(t, journalDir, 8); !bytes.Equal(wal, want) {
		t.Fatalf("journal after the replay:\n%s\nwant:\n%s", wal, want)
	}
}

// TestCancelSharedCellStillCompletes is the DELETE/singleflight
// regression test: jobs A and B share an in-flight cell through the
// store; canceling A must not poison the flight — B's cells all complete
// without error.
func TestCancelSharedCellStillCompletes(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan string, 16)
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		entered <- sc.Name
		<-release
		return stubRun(sc)
	})
	ctx := context.Background()

	a, err := client.Submit(ctx, smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // A's cell 0 is in flight
	b, err := client.Submit(ctx, smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Give B's worker a moment to attach to A's in-flight cell before the
	// cancellation, so the shared-flight path is what's exercised.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := client.Status(ctx, b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells.Running > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := client.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	close(release)

	rsB, err := client.Results(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rsB {
		if r.Err != "" {
			t.Fatalf("B's cell %d errored after A's cancel: %q", i, r.Err)
		}
	}
	stB, _ := client.Status(ctx, b.ID)
	if stB.State != JobDone {
		t.Fatalf("B's state %q, want done", stB.State)
	}
	// A's in-flight cell completed (and cached); its unstarted cells
	// report cancellation.
	rsA, err := client.Results(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rsA[0].Err != "" {
		t.Fatalf("A's in-flight cell should have completed: %+v", rsA[0])
	}
}

// TestServerShedsUnderOverload: with MaxJobs reached, submissions get a
// 429 carrying Retry-After, surfaced as a typed *APIError; a client with
// Retry configured backs off and succeeds once capacity frees up.
func TestServerShedsUnderOverload(t *testing.T) {
	release := make(chan struct{})
	store := newTestStore(t, t.TempDir(), 64, "test-v1")
	srv := &Server{
		Store:   store,
		Run:     func(sc runner.Scenario) runner.Result { <-release; return stubRun(sc) },
		Workers: 2,
		MaxJobs: 1,
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	ctx := context.Background()

	created1, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, smallGrid(), 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("shed submit error %v (%T), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != time.Second {
		t.Fatalf("shed error %+v, want 429 with Retry-After 1s", apiErr)
	}
	if !strings.Contains(apiErr.Message, "overloaded") {
		t.Fatalf("shed error message %q does not say overloaded", apiErr.Message)
	}

	// A retrying client rides the overload out: capacity frees while it
	// backs off.
	retrying := NewClient(hs.URL)
	retrying.Retry = Retry{Attempts: 20, Base: 20 * time.Millisecond, Max: 100 * time.Millisecond}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	created2, err := retrying.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatalf("retrying submit failed: %v", err)
	}
	if _, err := retrying.RawResults(ctx, created1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := retrying.RawResults(ctx, created2.ID); err != nil {
		t.Fatal(err)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsShed == 0 {
		t.Fatalf("metrics jobs_shed = 0 after shedding, want > 0")
	}
}

// TestServerWatchdogReapsHungCells: with a hang failpoint freezing every
// cell, the per-cell watchdog reaps them into error rows, results
// waiters are released (not hung forever), the kills are counted, and —
// because the injected hang honors the context the watchdog cancels —
// no goroutines leak. After clearing the fault the same grid simulates
// cleanly (error rows were never cached).
func TestServerWatchdogReapsHungCells(t *testing.T) {
	t.Cleanup(fault.Reset)
	baseline := runtime.NumGoroutine()
	store := newTestStore(t, t.TempDir(), 64, "test-v1")
	srv := &Server{Store: store, Run: stubRun, Workers: 2, CellTimeout: 50 * time.Millisecond}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	ctx := context.Background()

	if err := fault.Set("cell-run=hang:1"); err != nil {
		t.Fatal(err)
	}
	created, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []runner.Result, 1)
	go func() {
		rs, err := client.Results(ctx, created.ID)
		if err != nil {
			t.Error(err)
		}
		done <- rs
	}()
	var rs []runner.Result
	select {
	case rs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("results blocked: watchdog did not release singleflight waiters")
	}
	for i, r := range rs {
		if !strings.Contains(r.Err, "watchdog") {
			t.Fatalf("hung cell %d row %+v, want a watchdog error", i, r)
		}
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.WatchdogKills != created.Total {
		t.Fatalf("metrics watchdog_kills = %d, want %d", m.WatchdogKills, created.Total)
	}

	// Recovery: clear the fault and the same grid simulates cleanly —
	// watchdog error rows were not cached.
	fault.Reset()
	created2, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := client.Results(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs2 {
		if r.Err != "" {
			t.Fatalf("post-recovery cell %d errored: %q", i, r.Err)
		}
	}

	// The reaped cells' goroutines exited (the injected hang honors the
	// canceled context): goroutine count settles back to baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStoreTornWriteDetectedOnRestart is store-level crash consistency:
// a torn cache write (crash mid-write simulated at the final path) is
// detected by the key-verified read after "restart" — counted as corrupt,
// served as a miss, never as wrong data.
func TestStoreTornWriteDetectedOnRestart(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	store1 := newTestStore(t, dir, 64, "test-v1")
	sc := smallGrid().Expand()[0]
	key := store1.Key(sc)

	if err := fault.Set("disk-write=torn:1"); err != nil {
		t.Fatal(err)
	}
	r, _ := store1.GetOrRun(context.Background(), key, func() runner.Result { return stubRun(sc) })
	if r.Err != "" {
		t.Fatalf("torn persist must not fail the simulation itself: %+v", r)
	}
	if st := store1.Stats(); st.DiskErrors == 0 {
		t.Fatalf("torn write not counted in disk_errors: %+v", st)
	}
	fault.Reset()

	// "Restart": a fresh store over the same dir must reject the torn
	// entry, not serve it.
	store2 := newTestStore(t, dir, 64, "test-v1")
	if _, ok := store2.Get(key); ok {
		t.Fatal("torn cache entry served as a hit")
	}
	if st := store2.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1: %+v", st.Corrupt, st)
	}
	// The cell simply re-simulates — degraded, not wrong.
	r2, oc := store2.GetOrRun(context.Background(), key, func() runner.Result { return stubRun(sc) })
	if r2.Err != "" || oc != Miss {
		t.Fatalf("re-run after corruption = %+v (%v), want a clean miss", r2, oc)
	}
}

// TestEventsResumeFrom: GET /jobs/{id}/events?from=N skips exactly the
// first N lines, and a bad offset is a 400.
func TestEventsResumeFrom(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	ctx := context.Background()
	created, err := client.Submit(ctx, smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &full); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")

	resp, err := http.Get(client.Base + "/jobs/" + created.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := strings.Join(lines[2:], "")
	if string(tail) != want {
		t.Fatalf("?from=2 = %q, want %q", tail, want)
	}

	resp, err = http.Get(client.Base + "/jobs/" + created.ID + "/events?from=potato")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from offset: status %d, want 400", resp.StatusCode)
	}
}

// cutConn aborts the first /events response after one complete line has
// been flushed, simulating a daemon dying mid-stream, then passes every
// later request through untouched.
type cutHandler struct {
	inner http.Handler
	done  atomic.Bool
}

func (c *cutHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/events") && c.done.CompareAndSwap(false, true) {
		c.inner.ServeHTTP(&cutWriter{ResponseWriter: w}, r)
		return
	}
	c.inner.ServeHTTP(w, r)
}

type cutWriter struct {
	http.ResponseWriter
	sent int
}

func (cw *cutWriter) Write(b []byte) (int, error) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		cw.ResponseWriter.Write(b[:i+1])
		if f, ok := cw.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		// Abort the connection mid-body: the client sees a transport
		// error after exactly one complete line, like a daemon crash.
		panic(http.ErrAbortHandler)
	}
	return cw.ResponseWriter.Write(b)
}

// TestStreamEventsResumesAfterDrop: the self-healing client rides
// through a connection cut mid-stream — it reconnects with ?from=N and
// the consumer sees every progress line exactly once.
func TestStreamEventsResumesAfterDrop(t *testing.T) {
	store := newTestStore(t, t.TempDir(), 64, "test-v1")
	srv := &Server{Store: store, Run: stubRun, Workers: 1}
	srv.Start()
	hs := httptest.NewServer(&cutHandler{inner: srv.Handler()})
	t.Cleanup(hs.Close)
	client := NewClient(hs.URL)
	client.Retry = Retry{Attempts: 5, Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	ctx := context.Background()

	created, err := client.Submit(ctx, smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &buf); err != nil {
		t.Fatalf("stream did not survive the cut: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != created.Total {
		t.Fatalf("resumed stream delivered %d lines, want %d (no drops, no dups):\n%s",
			len(lines), created.Total, buf.String())
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		name := ln[strings.Index(ln, "]")+1:]
		if seen[name] {
			t.Fatalf("line duplicated across resume: %q", ln)
		}
		seen[name] = true
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsResumed != 1 {
		t.Fatalf("metrics events_resumed = %d, want 1", m.EventsResumed)
	}
}

// TestClientAPIErrorTyped: non-2xx responses surface as *APIError with
// the status, the server's message, and the raw body — inspectable by
// callers via errors.As.
func TestClientAPIErrorTyped(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	_, err := client.Status(context.Background(), "999")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || !strings.Contains(apiErr.Message, "no job") {
		t.Fatalf("APIError %+v, want 404 with a no-job message", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "/jobs/999") || !strings.Contains(apiErr.Error(), "404") {
		t.Fatalf("Error() = %q, want the path and status", apiErr.Error())
	}
	if apiErr.Body == "" {
		t.Fatal("APIError.Body empty, want the raw response body")
	}
}

// TestHealthzReadyz: /healthz answers immediately; /readyz gates on
// SetReady (journal replay completion).
func TestHealthzReadyz(t *testing.T) {
	store := newTestStore(t, t.TempDir(), 4, "v")
	srv := &Server{Store: store, Run: stubRun}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d, want 503", got)
	}
	srv.SetReady()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after SetReady = %d, want 200", got)
	}
}
