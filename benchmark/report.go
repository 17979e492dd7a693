package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measure for this long (rounds of set-up + pass)
	passes  int     // when > 0, exactly this many rounds instead
	// buildSeconds is what benchmark/run.sh spent building the harness,
	// handed over through the environment.
	buildSeconds float64
}

// minRounds is the fewest rounds a run reports.
const minRounds = 3

// moreRounds decides whether to start round number `round` (0-based).
// longest is the longest round so far: a round that would end after
// -seconds is not started, so a run measures for at most -seconds (once
// minRounds are done) and 92 runs of the driver fit its time budget even
// on a slow day.
func (o options) moreRounds(round int, started time.Time, longest float64) bool {
	if o.passes > 0 {
		return round < o.passes
	}
	return round < minRounds || time.Since(started).Seconds()+longest <= o.seconds
}

// metricValue is one reported number. N is the sample count behind it
// (passes for a median, cells or jobs for a percentile or mean).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// estimate is one row of the probe-based half of the "where the time
// goes" table: a count the workload produced times the unit cost an
// isolated probe measured, as a share of the pass's simulation time.
// Estimates overlap (a packet's cost includes its scheduler events), so
// they do not sum to 1.
type estimate struct {
	Layer  string  `json:"layer"`
	Probe  string  `json:"probe"`
	Count  float64 `json:"count"`
	UnitNs float64 `json:"unit_ns"`
	Ms     float64 `json:"ms"`
	Share  float64 `json:"share"`
}

// runResult is one run of one workload: what is printed, appended to the
// history, and compared.
type runResult struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Traced        bool                   `json:"traced"`
	Time          string                 `json:"time"`
	Host          hostInfo               `json:"host"`
	Rounds        int                    `json:"rounds"`
	PassWalls     []float64              `json:"pass_walls_s,omitempty"` // untraced: every timed pass, in order
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	ResultsDigest string                 `json:"results_digest"`
	Metrics       map[string]metricValue `json:"metrics"`
	WhereTimeGoes []layerTime            `json:"where_time_goes,omitempty"`
	Estimates     []estimate             `json:"estimates,omitempty"`

	started time.Time
}

// metricUnits is filled by loadSpec: results carry the unit
// BENCHMARK.json fixed, never one typed at the call site.
var metricUnits = map[string]string{}

func newRunResult(workload string, opt options) *runResult {
	return &runResult{
		Workload: workload,
		Seed:     opt.seed,
		Time:     time.Now().UTC().Format(time.RFC3339),
		Metrics:  map[string]metricValue{},
		started:  time.Now(),
	}
}

// set records a metric. Setting a name BENCHMARK.json does not list is a
// bug in the harness.
func (r *runResult) set(name string, v float64, n int) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in BENCHMARK.json")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

func (r *runResult) finish(chk *checker) {
	r.Attempted, r.Failed = chk.counts()
	r.Failures = chk.messages
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// contractLine is the last line of standard output: exactly the keys
// correct, attempted, failed and metrics, and in metrics exactly the
// names asked for, each with value and unit. A name the run did not
// measure (a layer the workload never enters) reads 0.
func (r *runResult) contractLine(names []MetricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range names {
		out.Metrics[m.Name] = mv{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print renders the run for a person: every metric by name with unit and
// sample count, the failures, and for a traced run the "where the time
// goes" table.
func (r *runResult) print(w io.Writer, sp Spec) {
	kind := "end-to-end (untraced)"
	defs := sp.EndToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", sp.PerLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  rounds %d  digest %.12s\n", r.Workload, r.Seed, kind, r.Rounds, r.ResultsDigest)
	for _, d := range defs {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s %14s %-6s (layer not entered by this workload)\n", d.Name, "0", d.Unit)
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d  %s better%s\n", d.Name, mv.Value, d.Unit, mv.N, d.Better, bound)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  failed_share %.6g (%d of %d operations)  correct=%v\n", share, r.Failed, r.Attempted, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if len(r.WhereTimeGoes) > 0 {
		fmt.Fprintf(w, "  where the time goes (self time = span minus its children; spans from the harness's own calls)\n")
		fmt.Fprintf(w, "    %-34s %7s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "share")
		for _, lt := range r.WhereTimeGoes {
			fmt.Fprintf(w, "    %-34s %7d %12.2f %12.2f %6.1f%%\n", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs, lt.Share*100)
		}
	}
	if len(r.Estimates) > 0 {
		fmt.Fprintf(w, "  probe estimates (count x isolated unit cost, share of the pass's simulation time; rows overlap)\n")
		fmt.Fprintf(w, "    %-30s %-30s %12s %10s %10s %7s\n", "layer", "unit cost from", "count", "unit ns", "ms", "share")
		for _, e := range r.Estimates {
			fmt.Fprintf(w, "    %-30s %-30s %12.0f %10.1f %10.2f %6.1f%%\n", e.Layer, e.Probe, e.Count, e.UnitNs, e.Ms, e.Share*100)
		}
	}
}

// estimatesFor builds the probe-based rows for a traced run. simHostSec
// is the host time the pass spent simulating (Σ cell wall; the daemon's
// sim_wall_sec for svc_*).
func estimatesFor(r *runResult, pr probeSet, simHostSec float64) []estimate {
	// Churn cells run on the timer wheel (exp.NetConfigFor), everything
	// else on the heap.
	sched := "sim.sched_ns_per_event_heap"
	if r.Metrics["workload.sessions_started"].Value > 0 {
		sched = "sim.sched_ns_per_event_wheel"
	}
	pkts := r.Metrics["netem.delivered_pkts"].Value + r.Metrics["netem.dropped_pkts"].Value
	rows := []struct {
		layer string
		count float64
		unit  string
	}{
		{"core detector+fft per tick", r.Metrics["core.detector_ticks"].Value, "core.detector_tick_ns"},
		{"transport+cc+netem per packet", pkts, "cc.cubic_flow_ns_per_pkt"},
		{"netem link alone per packet", pkts, "netem.link_ns_per_pkt"},
		{"sim scheduler alone per event", r.Metrics["sim.events"].Value, sched},
		{"workload sessions", r.Metrics["workload.sessions_started"].Value, "workload.ns_per_session"},
	}
	var out []estimate
	for _, row := range rows {
		if row.count == 0 {
			continue
		}
		ms := row.count * pr[row.unit] / 1e6
		e := estimate{Layer: row.layer, Probe: row.unit, Count: row.count, UnitNs: pr[row.unit], Ms: ms}
		if simHostSec > 0 {
			e.Share = ms / 1e3 / simHostSec
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ms > out[j].Ms })
	return out
}

// resultsDir is where traces, the history and the A/A report live.
func resultsDir(root string) string { return filepath.Join(root, "benchmark", "results") }

func traceFile(root, workload string) string {
	return filepath.Join(resultsDir(root), "trace-"+workload+".json")
}

// appendJSONL appends one record as a line of JSON: the history and -out
// files are append-only trajectories, one run per line.
func appendJSONL(path string, rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readJSONL reads run records back, skipping blank lines.
func readJSONL(path string) ([]runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []runResult
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r runResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// logf writes progress to standard error; standard output is the report.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
