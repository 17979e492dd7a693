package svc

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/runner"
)

// liveHeap is the live heap after two collections: the second empties
// the sync.Pool victim caches the first one filled, so pooled buffers
// (the HTTP server's, the encoder's) do not count as retained.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// countingTransport counts the requests a client sends.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}

// BenchmarkWarmJob is one resubmission of a cached 6-cell grid per op
// through an httptest daemon: submit, stream the events, fetch the raw
// results — the memory-tier hit path a warm nimbus-svc serves. Client and
// daemon share the process, so allocs/op and B/op count both sides.
// retained-B/job is what each finished job adds to the live heap, and
// requests/job the HTTP requests each job sends.
func BenchmarkWarmJob(b *testing.B) {
	client, _ := newTestServer(b, stubRun)
	tr := &countingTransport{base: http.DefaultTransport}
	client.HTTP = &http.Client{Transport: tr}
	ctx := context.Background()
	g := smallGrid()
	g.RatesMbps = []float64{24, 48, 96}
	job := func() {
		created, err := client.Submit(ctx, g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := client.StreamEvents(ctx, created.ID, io.Discard); err != nil {
			b.Fatal(err)
		}
		if _, err := client.RawResults(ctx, created.ID); err != nil {
			b.Fatal(err)
		}
	}
	job() // the cold job fills the cache
	before := liveHeap()
	tr.n.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
	b.StopTimer()
	after := liveHeap()
	b.ReportMetric(float64(int64(after)-int64(before))/float64(b.N), "retained-B/job")
	b.ReportMetric(float64(tr.n.Load())/float64(b.N), "requests/job")
}

// BenchmarkReplayFinished restarts a daemon over a journal of 1 000
// finished 4-cell jobs per op: OpenJournal, then Server.Replay. The
// first job's cells block, so the background pass holds every later job
// in its queue; retained-B/queued-job is what each of them adds to the
// live heap at that moment, the moment a restarted daemon's memory
// peaks. Then the cells are released and the pass drains.
func BenchmarkReplayFinished(b *testing.B) {
	const jobs = 1000
	dir := b.TempDir()
	journalDir := filepath.Join(dir, "journal")
	journal, _, err := OpenJournal(journalDir, false)
	if err != nil {
		b.Fatal(err)
	}
	for k := 1; k <= jobs; k++ {
		g := smallGrid()
		g.Base.Seed = int64(k)
		id := strconv.Itoa(k)
		for _, rec := range []Record{{Type: recSubmit, ID: id, Grid: &g}, {Type: recDone, ID: id, State: JobDone}} {
			if err := journal.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	journal.Close()
	ctx := context.Background()
	var retained int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := make(chan struct{})
		// Error rows are never cached: every op starts from an empty
		// cache and leaves nothing behind.
		run := func(sc runner.Scenario) runner.Result {
			<-release
			return runner.Result{Scenario: sc, Err: "released"}
		}
		before := liveHeap()
		journal, recs, err := OpenJournal(journalDir, false)
		if err != nil {
			b.Fatal(err)
		}
		srv := &Server{Store: newTestStore(b, filepath.Join(dir, "cache"), 64, "test-v1"), Run: run, Workers: 1, Journal: journal}
		srv.Start()
		if n := srv.Replay(recs); n != jobs {
			b.Fatalf("replayed %d jobs, want %d", n, jobs)
		}
		first := serverJob(srv, "1")
		for first.Status().Cells.Running == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		retained += int64(liveHeap()) - int64(before)
		close(release)
		if _, err := serverJob(srv, strconv.Itoa(jobs)).Results(ctx); err != nil {
			b.Fatal(err)
		}
		journal.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(retained)/float64(b.N*(jobs-1)), "retained-B/queued-job")
}
