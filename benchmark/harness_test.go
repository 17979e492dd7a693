package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"nimbus/internal/runner"
	"nimbus/internal/scheme"
	"nimbus/internal/svc"
)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func loadTestSpec(t *testing.T) Spec {
	t.Helper()
	sp, err := loadSpec(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// BENCHMARK.json and the harness must name the same things, within the
// limits the benchmark contract sets.
func TestSpecMatchesHarness(t *testing.T) {
	sp := loadTestSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var wl []string
	for _, w := range sp.Workloads {
		wl = append(wl, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	// The harness implements what BENCHMARK.json lists plus the extras,
	// and nothing is in both.
	for _, w := range extraWorkloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("extra workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(wl)
	impl := workloadNames()
	sort.Strings(impl)
	if got, want := strings.Join(wl, ","), strings.Join(impl, ","); got != want {
		t.Errorf("BENCHMARK.json workloads + extras %s, harness implements %s", got, want)
	}
	for _, w := range workloadWhys(sp) {
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}

	seen := map[string]bool{}
	for _, w := range sp.Workloads {
		seen[w.Name] = true
	}
	var names []string
	hasSetup := false
	for _, m := range sp.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower)")
	}
	for _, m := range sp.PerLayer {
		names = append(names, m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer %s carries a bound", m.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range sp.allMetrics() {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	sort.Strings(names)
	if got, want := strings.Join(names, "\n"), strings.Join(sortedKeys(metricDocs), "\n"); got != want {
		t.Errorf("BENCHMARK.json metrics and metricDocs differ:\nspec:\n%s\n\ndocs:\n%s", got, want)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", sp.Paths)
	}
	if b, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json")); err != nil || len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json: %d bytes, err %v", len(b), err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.1, false}, {100, 0.1, true},
		{19, 0.5, false}, {20, 0.5, true},
		{1000, 1, false}, {1000, 0, false},
	} {
		v, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
		if tc.ok && math.Abs(v-tc.p*float64(tc.n-1)) > 1e-9 {
			t.Errorf("percentile(n=%d, p=%g) = %g", tc.n, tc.p, v)
		}
	}
	if v := percentileOrZero(xs(50), 0.9); v != 0 {
		t.Errorf("percentileOrZero of a thin tail = %g, want 0", v)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4): the
// acceptance rule is written against it.
// A run never starts a round that would end after -seconds, once the
// minimum number of rounds is in; and wall_s is the fastest pass.
func TestRunStopsInsideItsSeconds(t *testing.T) {
	opt := options{seconds: 30}
	started := time.Now().Add(-20 * time.Second)
	if !opt.moreRounds(5, started, 4) {
		t.Error("20 s in, 4 s rounds, 30 s allowed: another round fits")
	}
	if opt.moreRounds(5, started, 11) {
		t.Error("20 s in, 11 s rounds, 30 s allowed: another round would overrun")
	}
	if !opt.moreRounds(minRounds-1, started, 11) {
		t.Error("fewer than minRounds rounds done: must go on")
	}
	if (options{passes: 2}).moreRounds(2, started, 0) {
		t.Error("-passes 2: a third round")
	}
	if got := fastest([]float64{2.5, 1.9, 2.0, 3.1}); got != 1.9 {
		t.Errorf("fastest = %g, want 1.9", got)
	}
	if got := fastest(nil); got != 0 {
		t.Errorf("fastest of nothing = %g, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3.9, 3.8, 4.1, 4.0, 3.7, 4.3, 3.85, 3.95, 4.05, 4.2}, 3.8375, 4.125},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

// The same seed generates byte-identical inputs; a different seed
// different ones.
func TestInputsComeFromTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) []runner.Grid{
		"svc_jobs": func(seed int64) []runner.Grid { return svcJobs(seed, 16) },
	}
	for _, w := range simWorkloads {
		gens[w.name] = w.grids
	}
	enc := func(gs []runner.Grid) string {
		b, err := json.Marshal(struct {
			Grids []runner.Grid
			Cells []runner.Scenario
		}{gs, expandAll(gs)})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for name, gen := range gens {
		a, b, c := enc(gen(7)), enc(gen(7)), enc(gen(8))
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
	// No two daemon jobs may share a cell, or a cold pass would hit.
	keys := map[string]bool{}
	for _, sc := range expandAll(svcJobs(3, defaultSvcSizes.coldJobs)) {
		if keys[sc.Key()] {
			t.Fatalf("svc jobs share cell %s", sc.Key())
		}
		keys[sc.Key()] = true
	}
}

// sweep_canonical is nimbus-bench -benchmark: the same 24 scenario keys
// and run seeds BENCH_runner.json was produced from.
func TestSweepCanonicalIsTheBenchGrid(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCH_runner.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []runner.Result
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	scs := expandAll(sweepCanonicalGrids(1))
	if len(scs) != 24 || len(rows) != 24 {
		t.Fatalf("%d cells, BENCH_runner.json has %d, want 24", len(scs), len(rows))
	}
	var events uint64
	for i, sc := range scs {
		want := rows[i].Scenario
		if sc.Key() != want.Key() || sc.RunSeed != want.RunSeed || sc.Name != want.Name {
			t.Errorf("cell %d: %s (run seed %d), BENCH_runner.json has %s (run seed %d)",
				i, sc.Key(), sc.RunSeed, want.Key(), want.RunSeed)
		}
		events += rows[i].Events
	}
	if events != 28370893 {
		t.Errorf("BENCH_runner.json sums to %d events; README and BENCHMARK.json quote 28370893", events)
	}
}

func goodRow() runner.Result {
	return runner.Result{
		Scenario: runner.Scenario{Name: "ok", Scheme: scheme.New("cubic"), RateMbps: 24, DurationSec: 1},
		Metrics:  map[string]float64{"mean_mbps": 23.5, "utilization": 0.98},
		Events:   1000, WallSec: 0.01,
	}
}

// The correctness checks must actually fail on a doctored result.
func TestChecksCatchDoctoredResults(t *testing.T) {
	if why := cellFailure(goodRow()); why != "" {
		t.Fatalf("good row failed: %s", why)
	}
	doctor := map[string]func(r *runner.Result){
		"err row":          func(r *runner.Result) { r.Err = "boom"; r.Metrics = nil },
		"nan metric":       func(r *runner.Result) { r.Metrics["qdelay_mean_ms"] = math.NaN() },
		"inf metric":       func(r *runner.Result) { r.Metrics["eta"] = math.Inf(1) },
		"utilization > 1":  func(r *runner.Result) { r.Metrics["utilization"] = 1.01 },
		"faster than link": func(r *runner.Result) { r.Metrics["mean_mbps"] = 24.5 },
		"no events":        func(r *runner.Result) { r.Events = 0 },
		"no metrics":       func(r *runner.Result) { r.Metrics = nil },
	}
	for name, f := range doctor {
		r := goodRow()
		f(&r)
		if cellFailure(r) == "" {
			t.Errorf("%s: not caught", name)
		}
	}

	var doc strings.Builder
	if err := runner.WriteJSON(&doc, []runner.Result{goodRow()}); err != nil {
		t.Fatal(err)
	}
	ref := []byte(doc.String())
	slower := []byte(strings.Replace(doc.String(), `"wall_sec": 0.01`, `"wall_sec": 0.75`, 1))
	if string(slower) == string(ref) {
		t.Fatal("test document has no wall_sec to vary")
	}
	flipped := append([]byte(nil), ref...)
	flipped[strings.Index(doc.String(), "23.5")] = '9'

	chk := &checker{}
	chk.checkSameBytes("wall_sec only", slower, ref, false)
	if _, failed := chk.counts(); failed != 0 {
		t.Errorf("a wall_sec difference failed the byte-identity check: %v", chk.messages)
	}
	chk.checkSameBytes("raw", slower, ref, true)
	chk.checkSameBytes("flipped byte", flipped, ref, false)
	if attempted, failed := chk.counts(); attempted != 3 || failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2: %v", attempted, failed, chk.messages)
	}
	if resultsDigest(ref) != resultsDigest(slower) || resultsDigest(ref) == resultsDigest(flipped) {
		t.Error("results_digest must ignore wall_sec and nothing else")
	}

	healthy := svc.StoreStats{MemHits: 100, DiskHits: 24, Misses: 0}
	want := statsExpect{misses: 0, diskHits: 24, lookups: 124}
	if why := statsFailure(healthy, svc.Metrics{}, want); why != "" {
		t.Errorf("healthy stats failed: %s", why)
	}
	for name, st := range map[string]svc.StoreStats{
		"wrong hit count": {MemHits: 99, DiskHits: 24},
		"a miss on warm":  {MemHits: 99, DiskHits: 24, Misses: 1},
		"wrong disk hits": {MemHits: 101, DiskHits: 23},
		"corrupt entry":   {MemHits: 100, DiskHits: 24, Corrupt: 1},
		"disk error":      {MemHits: 100, DiskHits: 24, DiskErrors: 1},
	} {
		if statsFailure(st, svc.Metrics{}, want) == "" {
			t.Errorf("%s: not caught", name)
		}
	}
	if statsFailure(healthy, svc.Metrics{JobsShed: 1}, want) == "" {
		t.Error("a shed job: not caught")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100 * ms},
		// Two cells in parallel, overlapping for 20 ms.
		{ID: 1, Parent: 0, Name: "cell", Start: 10 * ms, End: 60 * ms},
		{ID: 2, Parent: 0, Name: "cell", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 1, Name: "loop", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: -1, Name: "other", Start: 0, End: 5 * ms},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(subtree(spans, 0)) {
		got[lt.Name] = lt
	}
	if _, ok := got["other"]; ok {
		t.Error("subtree kept a span outside the root")
	}
	for name, wantSelf := range map[string]float64{"run": 20, "cell": 70, "loop": 30} {
		if math.Abs(got[name].SelfMs-wantSelf) > 1e-9 {
			t.Errorf("%s: self %g ms, want %g", name, got[name].SelfMs, wantSelf)
		}
	}
	share := 0.0
	for _, lt := range got {
		share += lt.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("shares sum to %g", share)
	}
	var rec *recorder // the untraced run
	rec.end(rec.begin("x", noSpan, ""))
	if rec.snapshot() != nil {
		t.Error("nil recorder recorded")
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 1.1, c * 0.9} }
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight(10), tight(10.3), "lower", verdictSame},
		{"worse", tight(10), tight(11.5), "lower", verdictWorse},
		{"better", tight(10), tight(8.5), "lower", verdictBetter},
		{"higher is better", tight(10), tight(8.5), "higher", verdictWorse},
		{"noisy", wide(10), wide(10.5), "lower", verdictUnresolved},
		{"noisy but disjoint", wide(10), wide(5), "lower", verdictBetter},
		{"noisy and disjointly worse", wide(10), wide(20), "lower", verdictWorse},
	} {
		if got, _, _, _ := judge(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Seed by seed, a drift both sides share leaves the paired change.
func TestPairedChange(t *testing.T) {
	group := func(scale float64) runGroup {
		var g runGroup
		for seed := int64(1); seed <= 6; seed++ {
			drift := 1 + 0.05*float64(seed) // the host slowing down over the session
			g.runs = append(g.runs, runResult{Seed: seed, Metrics: map[string]metricValue{
				"wall_s": {Value: 2 * drift * scale},
			}})
		}
		return g
	}
	p := pairedChange(group(1), group(1.04), "wall_s", "lower")
	if p.pairs != 6 || math.Abs(p.change-0.04) > 1e-9 || p.spread > 1e-9 || p.better != 0 || p.worse != 6 {
		t.Errorf("paired %+v, want change 0.04, spread 0, B worse on 6 of 6", p)
	}
	if p := pairedChange(group(1), group(1.04), "wall_s", "higher"); math.Abs(p.change+0.04) > 1e-9 || p.better != 6 {
		t.Errorf("higher is better: paired %+v, want change -0.04, B better on 6", p)
	}
	if p := pairedChange(group(1), group(1), "wall_s", "lower"); p.better != 0 || p.worse != 0 {
		t.Errorf("ties counted: %+v", p)
	}
	if p := pairedChange(group(1), runGroup{}, "wall_s", "lower"); p.pairs != 0 {
		t.Errorf("%d pairs with an empty side", p.pairs)
	}
}

func TestContractLine(t *testing.T) {
	sp := loadTestSpec(t)
	res := newRunResult("sweep_canonical", options{seed: 1})
	for _, m := range sp.EndToEnd {
		res.set(m.Name, 1.25, 3)
	}
	chk := &checker{}
	chk.op("")
	res.finish(chk)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine(sp.EndToEnd)), &line); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(line), ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result line keys: %s", got)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(sp.EndToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(sp.EndToEnd))
	}
	for name, mv := range metrics {
		if len(mv) != 2 || mv["value"] != 1.25 || mv["unit"] == "" {
			t.Errorf("metric %s: %v", name, mv)
		}
	}
	// The traced line carries every per-layer name, measured or not.
	if err := json.Unmarshal([]byte(res.contractLine(sp.PerLayer)), &line); err != nil {
		t.Fatal(err)
	}
	var layer map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &layer); err != nil || len(layer) != len(sp.PerLayer) {
		t.Errorf("%d per-layer metrics on the line, want %d (%v)", len(layer), len(sp.PerLayer), err)
	}
}

// A -short-sized simulator pass through the real entry points: two
// workers, repeated, byte-identical, and the replay agrees on events.
func TestSimPassSmall(t *testing.T) {
	grids := []runner.Grid{{
		Base:      runner.Scenario{RTTms: 20, BufferMs: 100, DurationSec: 2, Seed: 5},
		Schemes:   scheme.Specs("nimbus", "cubic"),
		RatesMbps: []float64{12, 24},
	}, {
		Base:      runner.Scenario{RateMbps: 24, RTTms: 20, BufferMs: 100, DurationSec: 2, Seed: 5},
		FlowMixes: []string{"nimbus*2+cubic"},
	}, {
		Base:    runner.Scenario{RateMbps: 24, RTTms: 20, BufferMs: 100, DurationSec: 2, Seed: 5, Scheme: scheme.New("cubic")},
		Churns:  []string{"web(load=6)"},
		Crosses: nil,
	}}
	chk := &checker{}
	rec := newRecorder()
	first := runSimPass(grids, 2, chk, nil, nil)
	second := runSimPass(grids, 1, chk, first.doc, rec)
	if a, f := chk.counts(); f != 0 || a != 2*len(first.results)+1 {
		t.Fatalf("attempted %d failed %d: %v", a, f, chk.messages)
	}
	if second.root < 0 || len(subtree(rec.snapshot(), second.root)) != 5+len(first.results) {
		t.Errorf("traced pass recorded %d spans", len(rec.snapshot()))
	}
	counts, mismatched := replayAll(expandAll(grids), first.results, 2, rec)
	if mismatched != 0 || replayFailure(mismatched, len(first.results)) != "" {
		t.Errorf("%d replayed cells disagree with exp.RunScenario on events", mismatched)
	}
	if replayFailure(1, 5) == "" {
		t.Error("a replay that drifted from exp is not reported as a failed check")
	}
	if counts.events != sumEvents(first.results) || counts.delivered == 0 {
		t.Errorf("replay: %d events (want %d), %d packets", counts.events, sumEvents(first.results), counts.delivered)
	}
	if acc, n := modeAccuracy(first.results); n != 2 || acc <= 0 {
		t.Errorf("mode_accuracy %g over %d cells", acc, n)
	}
}

// peak_rss_mb is a round's own peak: whatever ran earlier in the process
// — a bigger round, a bigger run — must not show in it.
func TestPeakRSSIsPerRun(t *testing.T) {
	loadTestSpec(t) // runSimUntraced sets metrics by their BENCHMARK.json names
	if err := resetPeakRSS(); err != nil {
		t.Skipf("cannot reset VmHWM here: %v", err)
	}
	cell := func(seed int64) []runner.Grid {
		return []runner.Grid{{
			Base:    runner.Scenario{RateMbps: 12, RTTms: 20, BufferMs: 100, DurationSec: 1, Seed: seed},
			Schemes: scheme.Specs("cubic"),
		}}
	}
	const ballastMB = 96
	big := simWorkload{name: "big", workers: 1, grids: func(seed int64) []runner.Grid {
		ballast := make([]byte, ballastMB<<20)
		for i := 0; i < len(ballast); i += 4096 {
			ballast[i] = 1
		}
		sink += int(ballast[len(ballast)-1])
		return cell(seed)
	}}
	small := simWorkload{name: "small", workers: 1, grids: cell}
	rss := func(w simWorkload) float64 {
		res, err := runSimUntraced(context.Background(), w, options{seed: 3, passes: 2})
		if err != nil || !res.Correct {
			t.Fatalf("%s: err %v, failures %v", w.name, err, res.Failures)
		}
		return res.Metrics["peak_rss_mb"].Value
	}
	first, second := rss(big), rss(small)
	if first < ballastMB {
		t.Errorf("big run reports %.1f MB, below its %d MB ballast", first, ballastMB)
	}
	if second >= ballastMB || second == first {
		t.Errorf("small run reports %.1f MB after a %.1f MB run: the earlier peak shows", second, first)
	}
}

// The daemon workloads end to end at toy size: build nimbus-svc, cold
// pass, warm pass with its restart, every check green, nothing left
// behind.
func TestSvcPassesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	tmp := t.TempDir()
	ctx := context.Background()
	bin, _, err := buildDaemon(ctx, repoRoot(t), tmp)
	if err != nil {
		t.Fatal(err)
	}
	env := svcEnv{ctx: ctx, bin: bin, tmp: tmp, seed: 2,
		sizes: svcSizes{coldJobs: 6, warmUnique: 3, warmMemJobs: 30, warmDiskJobs: 10}}
	chk := &checker{}
	cold, err := svcColdPass(env, chk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svcColdPass(env, chk, cold.docs, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := svcWarmPass(env, chk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	localEquivalence(svcJobs(env.seed, env.sizes.coldJobs), cold.docs, []int{0, 1}, chk)
	if a, f := chk.counts(); f != 0 || a == 0 {
		t.Fatalf("attempted %d failed %d: %v", a, f, chk.messages)
	}
	if cold.stats.Misses == 0 || cold.stats.Misses != again.stats.Misses || cold.simEvents == 0 {
		t.Errorf("cold: %+v, %d events", cold.stats, cold.simEvents)
	}
	if warm.stats.Misses != 0 || warm.stats.DiskHits == 0 || warm.simEvents != 0 || len(warm.timings) != 40 {
		t.Errorf("warm: %+v, %d events, %d jobs", warm.stats, warm.simEvents, len(warm.timings))
	}
	if warm.readyMs <= 0 || cold.rssMB <= 0 || cold.cpuS < 0 {
		t.Errorf("ready %g ms, rss %g MB, cpu %g s", warm.readyMs, cold.rssMB, cold.cpuS)
	}
	left, _ := filepath.Glob(filepath.Join(tmp, "cold-*"))
	warmLeft, _ := filepath.Glob(filepath.Join(tmp, "warm-*"))
	if left = append(left, warmLeft...); len(left) != 0 {
		t.Errorf("passes left %v behind", left)
	}

	// A daemon that answers with the wrong bytes must be caught.
	bad := &checker{}
	doctored := append([][]byte(nil), cold.docs...)
	doctored[0] = []byte(strings.Replace(string(doctored[0]), `"events": `, `"events": 1`, 1))
	if _, err := svcColdPass(env, bad, doctored, nil); err != nil {
		t.Fatal(err)
	}
	if _, f := bad.counts(); f != 1 {
		t.Errorf("a doctored reference failed %d jobs, want 1: %v", f, bad.messages)
	}
}
