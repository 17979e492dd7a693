package svc

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nimbus/internal/runner"
)

func testScenario(seed int64) runner.Scenario {
	return runner.Scenario{
		Name: "cell", RateMbps: 96, RTTms: 50, BufferMs: 100,
		DurationSec: 30, Seed: seed,
	}
}

func testResult(sc runner.Scenario) runner.Result {
	return runner.Result{
		Scenario: sc,
		Metrics:  map[string]float64{"mean_mbps": 42.5, "qdelay_p95_ms": 3.25},
		Events:   123456,
		WallSec:  1.5,
	}
}

func newTestStore(t testing.TB, dir string, entries int, version string) *Store {
	t.Helper()
	s, err := NewStore(dir, entries, version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreSingleflight: N concurrent submitters of the same cell run ONE
// simulation; everyone gets its result; exactly one caller reports Miss
// and the rest report Shared (none of them hit memory — the entry did not
// exist when they arrived).
func TestStoreSingleflight(t *testing.T) {
	s := newTestStore(t, t.TempDir(), 16, "v1")
	sc := testScenario(1)
	key := s.Key(sc)

	var runs atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	results := make([]runner.Result, callers)
	outcomes := make([]Outcome, callers)
	var ready, finished sync.WaitGroup
	ready.Add(callers)
	finished.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer finished.Done()
			ready.Done()
			results[i], outcomes[i] = s.GetOrRun(context.Background(), key, func() runner.Result {
				runs.Add(1)
				<-gate // hold the flight open until every caller has arrived
				return testResult(sc)
			})
		}()
	}
	ready.Wait()
	// Every caller is launched; the one holding the flight is parked on
	// the gate and the rest are (or will be) waiting on it. Waiters
	// accumulate in the Shared counter — poll it so the gate only opens
	// once all 15 are provably parked on the flight, making the "one run"
	// assertion meaningful rather than racy.
	for s.Stats().Shared < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	finished.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent submitters ran %d simulations, want 1", callers, got)
	}
	miss, shared := 0, 0
	for i := range outcomes {
		switch outcomes[i] {
		case Miss:
			miss++
		case Shared:
			shared++
		default:
			t.Fatalf("caller %d: unexpected outcome %v", i, outcomes[i])
		}
		if results[i].Events != 123456 {
			t.Fatalf("caller %d got wrong result: %+v", i, results[i])
		}
	}
	if miss != 1 || shared != callers-1 {
		t.Fatalf("outcomes: %d miss + %d shared, want 1 + %d", miss, shared, callers-1)
	}
}

// TestStoreCorruptEntryIsMissAndRewritten: truncated or foreign bytes at
// a key's content address are treated as a miss, the cell re-simulates,
// and the entry is atomically rewritten to a valid one.
func TestStoreCorruptEntryIsMissAndRewritten(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir, 16, "v1")
	sc := testScenario(1)
	key := s.Key(sc)

	for name, garbage := range map[string]string{
		"truncated-json": `{"key":"` + key + `","result":{"scenario":{"na`,
		"empty":          "",
		"foreign":        `{"hello":"world"}`,
	} {
		if err := os.WriteFile(s.Path(key), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		runs := 0
		r, oc := s.GetOrRun(context.Background(), key, func() runner.Result {
			runs++
			return testResult(sc)
		})
		if oc != Miss || runs != 1 {
			t.Fatalf("%s: outcome %v after %d runs, want miss after 1", name, oc, runs)
		}
		if r.Events != 123456 {
			t.Fatalf("%s: wrong result %+v", name, r)
		}
		// The entry is rewritten and valid: a fresh store (cold memory
		// tier) must read it back from disk.
		cold := newTestStore(t, dir, 16, "v1")
		if got, ok := cold.Get(key); !ok || got.Events != 123456 {
			t.Fatalf("%s: rewritten entry unreadable: ok=%v %+v", name, ok, got)
		}
		if cold.Stats().Corrupt != 0 {
			t.Fatalf("%s: rewritten entry still counts corrupt", name)
		}
		// No temp files leak from the atomic write.
		ents, err := filepath.Glob(filepath.Join(dir, ".put-*"))
		if err != nil || len(ents) != 0 {
			t.Fatalf("%s: leftover temp files %v (err %v)", name, ents, err)
		}
		// Reset the memory tier for the next flavor of garbage.
		s = newTestStore(t, dir, 16, "v1")
	}
}

// TestStoreCodeVersionInvalidates: the same scenario under a different
// code version is a different content address — a rebuilt simulator never
// serves results computed by the old code.
func TestStoreCodeVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1)

	v1 := newTestStore(t, dir, 16, "v1")
	runs := 0
	run := func() runner.Result { runs++; return testResult(sc) }
	if _, oc := v1.GetOrRun(context.Background(), v1.Key(sc), run); oc != Miss {
		t.Fatalf("first run: outcome %v, want miss", oc)
	}

	v2 := newTestStore(t, dir, 16, "v2")
	if v1.Key(sc) == v2.Key(sc) {
		t.Fatalf("code version not in cache key: %s", v1.Key(sc))
	}
	if _, oc := v2.GetOrRun(context.Background(), v2.Key(sc), run); oc != Miss {
		t.Fatalf("changed code version: outcome %v, want miss", oc)
	}
	if runs != 2 {
		t.Fatalf("ran %d simulations across versions, want 2", runs)
	}
	// Same version, fresh process: served from disk without running.
	v1b := newTestStore(t, dir, 16, "v1")
	if _, oc := v1b.GetOrRun(context.Background(), v1b.Key(sc), run); oc != HitDisk {
		t.Fatalf("same code version across restart: outcome %v, want disk hit", oc)
	}
	if runs != 2 {
		t.Fatalf("restart re-ran the simulation (%d runs)", runs)
	}
}

// TestStoreTiers walks one key through the tiers: miss → memory hit →
// (evicted) disk hit → memory hit again.
func TestStoreTiers(t *testing.T) {
	s := newTestStore(t, t.TempDir(), 1, "v1") // memory tier holds ONE entry
	a, b := testScenario(1), testScenario(2)
	run := func(sc runner.Scenario) func() runner.Result {
		return func() runner.Result { return testResult(sc) }
	}

	if _, oc := s.GetOrRun(context.Background(), s.Key(a), run(a)); oc != Miss {
		t.Fatalf("a: %v, want miss", oc)
	}
	if _, oc := s.GetOrRun(context.Background(), s.Key(a), run(a)); oc != HitMem {
		t.Fatalf("a again: %v, want memory hit", oc)
	}
	// b evicts a from the single-entry memory tier...
	if _, oc := s.GetOrRun(context.Background(), s.Key(b), run(b)); oc != Miss {
		t.Fatalf("b: %v, want miss", oc)
	}
	if st := s.Stats(); st.Evictions != 1 || st.MemEntries != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// ...but a's disk copy survives.
	if _, oc := s.GetOrRun(context.Background(), s.Key(a), run(a)); oc != HitDisk {
		t.Fatalf("a after eviction: %v, want disk hit", oc)
	}
	if _, oc := s.GetOrRun(context.Background(), s.Key(a), run(a)); oc != HitMem {
		t.Fatalf("a promoted: %v, want memory hit", oc)
	}
}

// TestStoreErrorResultsNotCached: a failing cell reports its error but is
// re-attempted on the next request instead of pinning the failure.
func TestStoreErrorResultsNotCached(t *testing.T) {
	s := newTestStore(t, t.TempDir(), 16, "v1")
	sc := testScenario(1)
	key := s.Key(sc)
	runs := 0
	fail := func() runner.Result {
		runs++
		return runner.Result{Scenario: sc, Err: "bad scheme"}
	}
	if r, oc := s.GetOrRun(context.Background(), key, fail); oc != Miss || r.Err == "" {
		t.Fatalf("outcome %v err %q", oc, r.Err)
	}
	if r, oc := s.GetOrRun(context.Background(), key, fail); oc != Miss || r.Err == "" {
		t.Fatalf("second attempt: outcome %v err %q — error was cached", oc, r.Err)
	}
	if runs != 2 {
		t.Fatalf("error result cached after %d runs", runs)
	}
	if _, err := os.Stat(s.Path(key)); !os.IsNotExist(err) {
		t.Fatalf("error result written to disk: %v", err)
	}
}

// TestStoreDiskEnvelope pins the on-disk layout (docs/service.md): the
// file sits at sha256(key).json and holds {"key": ..., "result": ...},
// with the recorded key checked on read so a hash collision or a file
// renamed by hand cannot serve the wrong scenario's result.
func TestStoreDiskEnvelope(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir, 16, "v1")
	sc := testScenario(1)
	key := s.Key(sc)
	wantSuffix := "/" + "1" + "/v1" // CacheKey = Key()/seed/codeVersion
	if !strings.HasSuffix(key, wantSuffix) {
		t.Fatalf("store key %q does not end in %q", key, wantSuffix)
	}
	s.GetOrRun(context.Background(), key, func() runner.Result { return testResult(sc) })

	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	if e.Key != key || e.Result.Events != 123456 {
		t.Fatalf("envelope %+v does not round-trip key/result", e)
	}

	// An entry recorded under a different key is rejected even though it
	// is valid JSON at the right path.
	other := s.Key(testScenario(2))
	e.Key = other
	b, _ = json.Marshal(e)
	if err := os.WriteFile(s.Path(key), b, 0o644); err != nil {
		t.Fatal(err)
	}
	cold := newTestStore(t, dir, 16, "v1")
	if _, ok := cold.Get(key); ok {
		t.Fatal("entry with mismatched recorded key served as a hit")
	}
	if cold.Stats().Corrupt != 1 {
		t.Fatalf("key mismatch not counted corrupt: %+v", cold.Stats())
	}
}
