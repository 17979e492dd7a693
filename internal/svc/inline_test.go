package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nimbus/internal/runner"
)

// postJob sends a grid to base's POST /jobs and returns the status code
// and the decoded response.
func postJob(t *testing.T, base string, g runner.Grid) (int, JobCreated) {
	t.Helper()
	body, err := json.Marshal(JobRequest{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created JobCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, created
}

// getBody is the body of a GET of base+path.
func getBody(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInlineAnswerIsTheHTTPAnswer: a resubmitted grid whose cells are
// all in the memory tier is answered 200 OK inside POST /jobs. Its
// results are the bytes GET /jobs/{id}/results returns and a local
// runner.WriteJSON writes; its events are the text GET
// /jobs/{id}/events streams; and the client hands both out as they came.
func TestInlineAnswerIsTheHTTPAnswer(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	ctx := context.Background()
	g := smallGrid()
	code, cold := postJob(t, client.Base, g)
	if code != http.StatusAccepted || cold.State != "" || cold.Events != "" || cold.Results != "" {
		t.Fatalf("cold job: %d %+v, want 202 with id and total alone", code, cold)
	}
	if _, err := client.RawResults(ctx, cold.ID); err != nil {
		t.Fatal(err)
	}

	code, warm := postJob(t, client.Base, g)
	if code != http.StatusOK || warm.State != JobDone || warm.Total != 4 {
		t.Fatalf("warm job: %d %+v, want 200, done, 4 cells", code, warm)
	}
	var local bytes.Buffer
	if err := runner.WriteJSON(&local, (&runner.Runner{Workers: 1}).Run(g.Expand(), stubRun)); err != nil {
		t.Fatal(err)
	}
	if warm.Results != local.String() {
		t.Fatalf("inline results differ from local batch output:\ninline: %s\nlocal:  %s", warm.Results, local.String())
	}
	if got := getBody(t, client.Base, "/jobs/"+warm.ID+"/results"); got != warm.Results {
		t.Fatalf("inline results differ from GET results:\ninline: %s\nGET:    %s", warm.Results, got)
	}
	if got := getBody(t, client.Base, "/jobs/"+warm.ID+"/events"); got != warm.Events {
		t.Fatalf("inline events differ from the stream:\ninline: %q\nstream: %q", warm.Events, got)
	}
	if n := strings.Count(warm.Events, "[hit-mem]\n"); n != 4 {
		t.Fatalf("inline events %q, want 4 hit-mem lines", warm.Events)
	}

	// Through the client: the same bytes, from the answer.
	created, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &events); err != nil {
		t.Fatal(err)
	}
	raw, err := client.RawResults(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if events.String() != created.Events || string(raw) != local.String() {
		t.Fatalf("client served %q and %s, want the inline answer", events.String(), raw)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsInline != 2 || m.JobsDone != 3 {
		t.Fatalf("metrics %+v, want 2 of 3 done jobs inline", m)
	}
}

// TestUncachedCellIsAccepted: a grid with one cell the memory tier does
// not hold is accepted (202) while that cell still simulates, and its
// events stream as they happen.
func TestUncachedCellIsAccepted(t *testing.T) {
	release := make(chan struct{})
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		if sc.RateMbps == 24 {
			<-release
		}
		return stubRun(sc)
	})
	ctx := context.Background()
	g := smallGrid()
	created, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RawResults(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	g.RatesMbps = append(g.RatesMbps, 24)
	code, created := postJob(t, client.Base, g)
	if code != http.StatusAccepted || created.State != "" || created.Total != 6 {
		close(release)
		t.Fatalf("grid with uncached cells: %d %+v, want 202 while they run", code, created)
	}
	st, err := client.Status(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobRunning {
		t.Fatalf("status %+v, want running", st)
	}
	close(release)
	var events bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &events); err != nil {
		t.Fatal(err)
	}
	if hits, misses := strings.Count(events.String(), "[hit-mem]"), strings.Count(events.String(), "[miss]"); hits != 4 || misses != 2 {
		t.Fatalf("streamed %q, want 4 hits and 2 misses", events.String())
	}
}

// TestInlineJobLooksUpEachCellOnce: the check that decides whether a job
// is answered inline is a peek, not a lookup. Over a cold job and three
// inline ones the store counts exactly one lookup per cell, and the peek
// leaves the LRU order as it was.
func TestInlineJobLooksUpEachCellOnce(t *testing.T) {
	client, srv := newTestServer(t, stubRun)
	ctx := context.Background()
	g := smallGrid()
	for k := 0; k < 4; k++ {
		created, err := client.Submit(ctx, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RawResults(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
		if k > 0 && created.State != JobDone {
			t.Fatalf("resubmission %d was not answered inline: %+v", k, created)
		}
	}
	st := srv.Store.Stats()
	if lookups := st.MemHits + st.DiskHits + st.Misses + st.Shared; st.Misses != 4 || st.MemHits != 12 || lookups != 16 {
		t.Fatalf("store counted %+v, want 4 misses and 12 memory hits: one lookup per cell", st)
	}

	// LRU order: a and b cached, b the most recent. A peek at a must
	// leave a the coldest, so inserting c evicts a.
	s := newTestStore(t, t.TempDir(), 2, "v1")
	a, b, c := testScenario(1), testScenario(2), testScenario(3)
	for _, sc := range []runner.Scenario{a, b} {
		s.GetOrRun(ctx, s.Key(sc), func() runner.Result { return testResult(sc) })
	}
	before := s.Stats()
	if s.memKeys([]runner.Scenario{a}) == nil || s.memKeys([]runner.Scenario{a, c}) != nil {
		t.Fatal("memKeys does not answer from the memory tier")
	}
	if after := s.Stats(); after != before {
		t.Fatalf("the peek moved counters: %+v -> %+v", before, after)
	}
	s.GetOrRun(ctx, s.Key(c), func() runner.Result { return testResult(c) })
	if s.memKeys([]runner.Scenario{a}) != nil || s.memKeys([]runner.Scenario{b, c}) == nil {
		t.Fatal("the peek moved a to the front of the LRU")
	}
}

// TestInlineAnswerIsServedOnce: the client serves each part of an inline
// answer once and only for the job it answered. A second read of a part,
// or a read after another Submit (answered inline or not) replaced the
// answer, goes to the daemon and gets the same bytes.
func TestInlineAnswerIsServedOnce(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	tr := &requestLog{base: http.DefaultTransport}
	client.HTTP = &http.Client{Transport: tr}
	ctx := context.Background()
	g := smallGrid()
	cold, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := client.RawResults(ctx, cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	tr.sent()

	first, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	for k := 0; k < 2; k++ {
		events.Reset()
		if err := client.StreamEvents(ctx, first.ID, &events); err != nil {
			t.Fatal(err)
		}
		if events.String() != first.Events {
			t.Fatalf("read %d of the events: %q, want %q", k+1, events.String(), first.Events)
		}
		for j := 0; j < 2; j++ {
			raw, err := client.RawResults(ctx, first.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("results read %d: %s, want %s", j+1, raw, want)
			}
		}
	}
	id := first.ID
	if got, want := tr.sent(), []string{"POST /jobs", "GET /jobs/" + id + "/results", "GET /jobs/" + id + "/events", "GET /jobs/" + id + "/results", "GET /jobs/" + id + "/results"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %q, want %q", got, want)
	}

	// A second Submit replaces the answer: the first job's parts come
	// from the daemon, the second's from its answer.
	first, err = client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, created := range []JobCreated{first, second} {
		events.Reset()
		if err := client.StreamEvents(ctx, created.ID, &events); err != nil {
			t.Fatal(err)
		}
		raw, err := client.RawResults(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if events.String() != created.Events || !bytes.Equal(raw, want) {
			t.Fatalf("job %s: events %q, results %s", created.ID, events.String(), raw)
		}
	}
	if got, want := tr.sent(), []string{"POST /jobs", "POST /jobs", "GET /jobs/" + first.ID + "/events", "GET /jobs/" + first.ID + "/results"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %q, want %q", got, want)
	}

	// A submission answered 202 drops the answer too.
	first, err = client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Base.Seed = 99
	cold, err = client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != "" {
		t.Fatalf("a grid of new cells was answered inline: %+v", cold)
	}
	for _, id := range []string{first.ID, cold.ID} {
		if _, err := client.RawResults(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tr.sent(), []string{"POST /jobs", "POST /jobs", "GET /jobs/" + first.ID + "/results", "GET /jobs/" + cold.ID + "/results"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %q, want %q", got, want)
	}
}

// TestInlineAnswerSharedClient: one Client shared by goroutines, each
// submitting warm jobs and reading their events and results. Whichever
// answer the client holds when a goroutine reads, every job's events and
// results are its own. Run it with -race.
func TestInlineAnswerSharedClient(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	ctx := context.Background()
	grids := make([]runner.Grid, 3)
	want := make([]string, len(grids))
	for i := range grids {
		grids[i] = smallGrid()
		grids[i].Base.Seed = int64(i + 1)
		created, err := client.Submit(ctx, grids[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := client.RawResults(ctx, created.ID)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(raw)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(grids))
	for i := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				created, err := client.Submit(ctx, grids[i], 0)
				if err != nil {
					errs <- err
					return
				}
				var events bytes.Buffer
				if err := client.StreamEvents(ctx, created.ID, &events); err != nil {
					errs <- err
					return
				}
				raw, err := client.RawResults(ctx, created.ID)
				if err != nil {
					errs <- err
					return
				}
				if string(raw) != want[i] || events.String() != created.Events {
					errs <- fmt.Errorf("job %s of grid %d: results %s, events %q", created.ID, i, raw, events.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInlineJobReplays: a job answered inline is journaled like any
// other (a submit and a done record), so after a restart its id answers
// with the same results and as many progress lines.
func TestInlineJobReplays(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journalDir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	ctx := context.Background()
	_, client, _ := bootJournaled(t, cacheDir, journalDir, stubRun)
	var created JobCreated
	for k := 0; k < 2; k++ {
		var err error
		if created, err = client.Submit(ctx, smallGrid(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := client.RawResults(ctx, created.ID); err != nil {
			t.Fatal(err)
		}
	}
	if created.State != JobDone {
		t.Fatalf("resubmission not answered inline: %+v", created)
	}
	readWAL(t, journalDir, 4)

	srv, client, n := bootJournaled(t, cacheDir, journalDir, stubRun)
	if n != 2 {
		t.Fatalf("restart replayed %d jobs, want 2", n)
	}
	row := jobTable(t, srv)[created.ID]
	if row.Raw != created.Results || row.Status.State != JobDone || row.Status.Cells.Hit != row.Status.Total {
		t.Fatalf("inline job %s replayed as %+v", created.ID, row)
	}
	var events bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &events); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(events.String(), "\n"), strings.Count(created.Events, "\n"); got != want {
		t.Fatalf("replayed job streamed %d lines, want %d", got, want)
	}
}
