package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Spec is BENCHMARK.json: the one place workloads, metric names, units,
// directions and regression bounds are fixed. The harness reads it at
// start-up, so what it prints and what a reviewer reads cannot drift.
type Spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

// WorkloadDef names a workload and records why it exists.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef names a metric. Bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from dir to the repository root: the directory that
// holds BENCHMARK.json next to the nimbus module's go.mod.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module nimbus\n") {
			if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
				return d, nil
			}
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no repository root (go.mod of module nimbus beside BENCHMARK.json) above %s", dir)
		}
	}
}

// loadSpec reads BENCHMARK.json and registers every metric's unit, so
// results carry the unit the spec fixed.
func loadSpec(root string) (Spec, error) {
	var sp Spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range sp.allMetrics() {
		metricUnits[m.Name] = m.Unit
	}
	return sp, nil
}

// allMetrics is every metric BENCHMARK.json names, end-to-end first.
func (sp Spec) allMetrics() []MetricDef {
	return append(append([]MetricDef{}, sp.EndToEnd...), sp.PerLayer...)
}

// metricDoc is what the harness knows about a metric beyond
// BENCHMARK.json: what it means, and whether it must repeat exactly for
// a given seed (counts and simulated quantities) or is host time.
type metricDoc struct {
	Meaning string
	// Exact marks counts and simulated metrics: same seed, same code,
	// same value, to the last digit. -compare treats any difference as
	// "simulated output changed", not as noise.
	Exact bool
}

// metricDocs covers every name in BENCHMARK.json (a self-test enforces
// the two lists are equal). Host time unless the meaning says simulated
// or count.
var metricDocs = map[string]metricDoc{
	// End to end.
	"setup_s":          {Meaning: "host s before a timed pass, median over rounds: grid/job generation, Expand, short warm-up pass; svc_*: temp dir, daemon exec→/readyz, cache pre-population"},
	"wall_s":           {Meaning: "host s per pass, the fastest pass of the run: grid (or job list) handed to the entry point → verified results in hand"},
	"sim_s_per_wall_s": {Meaning: "simulated seconds of results delivered per host second (Σ cell duration_sec ÷ wall_s)"},
	"peak_rss_mb":      {Meaning: "VmHWM of the process doing the simulating (harness; daemon pid for svc_*)"},

	// sim.
	"sim.events":                         {Meaning: "count: Scheduler.Executed summed over one pass's cells (svc_*: the daemon's sim_events over the timed part)", Exact: true},
	"sim.events_per_sim_s":               {Meaning: "count: sim.events ÷ Σ duration_sec", Exact: true},
	"sim.sched_ns_per_event_heap":        {Meaning: "probe: self-rearming no-op AfterFunc events, 64 pending, 4-ary heap"},
	"sim.sched_ns_per_event_wheel":       {Meaning: "probe: same, 10k pending, timer wheel"},
	"sim.timer_rearm_ns":                 {Meaning: "probe: Scheduler.Rearm of a live handle (Cancel + push), 64 pending"},
	"sim.run_until_ms":                   {Meaning: "span: mean per cell around Sch.RunUntil in the replay pass"},
	"netem.link_ns_per_pkt":              {Meaning: "probe: Link.Send through DropTail to a re-sending receiver, per delivered packet"},
	"netem.topology_ns_per_pkt_hop":      {Meaning: "probe: one packet across access-hop, per hop"},
	"netem.fluid_ns_per_rate_change":     {Meaning: "probe: Link.AddFluidRate after 1 ms of fluid integration"},
	"netem.fluid_fg_ns_per_pkt":          {Meaning: "probe: foreground packet through a fluid-enabled link at half load"},
	"netem.allocs_per_pkt":               {Meaning: "probe: heap allocations per packet on the link probe"},
	"netem.delivered_pkts":               {Meaning: "count: bottleneck DeliveredPackets summed over the replay pass", Exact: true},
	"netem.dropped_pkts":                 {Meaning: "count: bottleneck DroppedPackets summed over the replay pass", Exact: true},
	"netem.fluid_qdelay_err_pct":         {Meaning: "simulated, cross_fluid: mean |qdelay_mean(fluid) − qdelay_mean(packet)| ÷ packet over the reference pairs", Exact: true},
	"transport.flow_ns_per_pkt":          {Meaning: "probe: fixedwindow(cwnd=200) flow on an uncongested 96 Mbit/s link, 10 sim-s, per delivered packet"},
	"transport.events_per_pkt":           {Meaning: "count: Executed ÷ delivered on that probe", Exact: true},
	"transport.allocs_per_pkt":           {Meaning: "probe: heap allocations per delivered packet on that probe"},
	"cc.cubic_flow_ns_per_pkt":           {Meaning: "probe: single cubic flow, 96 Mbit/s, 10 sim-s (minus transport.flow_ns_per_pkt = controller cost)"},
	"cc.bbr_flow_ns_per_pkt":             {Meaning: "probe: same, bbr"},
	"cc.copa_flow_ns_per_pkt":            {Meaning: "probe: same, copa"},
	"core.detector_tick_ns":              {Meaning: "probe: Detector.AddSample+Elasticity, default config (fft.Plan)"},
	"core.detector_tick_ns_rfft":         {Meaning: "probe: same with RFFT (fft.RealPlan)"},
	"core.mode_accuracy":                 {Meaning: "simulated: mean over the workload's Nimbus cells with ground truth of time-weighted correct-mode fraction (0.7815 on sweep_canonical seed 1)", Exact: true},
	"core.detector_ticks":                {Meaning: "count: Nimbus ticks with a full detector window in the replay pass", Exact: true},
	"core.nimbus_flow_ns_per_pkt":        {Meaning: "probe: single nimbus flow, 96 Mbit/s, 10 sim-s"},
	"core.detector_share_est":            {Meaning: "estimate: detector_ticks × detector_tick_ns ÷ Σ cell host time of the pass"},
	"fft.analyze_ns_plan":                {Meaning: "probe: Plan.AnalyzeInto, 500 samples at 100 Hz"},
	"fft.analyze_ns_realplan":            {Meaning: "probe: RealPlan.AnalyzeInto, same window"},
	"fft.goertzel_ns":                    {Meaning: "probe: Goertzel single bin, same window"},
	"crosstraffic.poisson_ns_per_pkt":    {Meaning: "probe: Poisson source at 48 Mbit/s alone on a 96 Mbit/s link, per delivered packet"},
	"crosstraffic.fluid_ns_per_resample": {Meaning: "probe: fluid Poisson source alone, per scheduler event"},
	"crosstraffic.fluid_events_ratio":    {Meaning: "count, cross_fluid: packet ÷ fluid sim.events over the reference pairs", Exact: true},
	"workload.sessions_started":          {Meaning: "count: Σ churn_started", Exact: true},
	"workload.max_active":                {Meaning: "count: max churn_max_active", Exact: true},
	"workload.ns_per_session":            {Meaning: "probe: web(load=96) generator alone on 192 Mbit/s, host ns per session including its packets"},
	"metrics.delay_add_ns":               {Meaning: "probe: DelayRecorder.Add below the reservoir cap"},
	"exp.rig_build_us":                   {Meaning: "span: mean per cell of rig construction in the replay pass"},
	"exp.collect_us":                     {Meaning: "span: mean per cell of exp.RunScenario − rig build − RunUntil"},
	"exp.run_scenario_p50_ms":            {Meaning: "span: exp.RunScenario per cell in the traced pass"},
	"exp.run_scenario_p90_ms":            {Meaning: "span: same, p90 (0 with fewer than 100 cells)"},
	"runner.expand_us_per_cell":          {Meaning: "Grid.Expand over the workload's grids"},
	"runner.key_ns":                      {Meaning: "Scenario.Key + CacheKey over the workload's cells"},
	"runner.emit_us_per_cell":            {Meaning: "runner.WriteJSON of one pass's results"},
	"runner.parallel_speedup_w2":         {Meaning: "sweep_canonical: pass wall at Workers=1 ÷ at Workers=2"},
	"runner.cell_wall_p50_ms":            {Meaning: "Result.WallSec per cell (daemon-side for svc_*)"},
	"runner.cell_wall_p90_ms":            {Meaning: "same, p90 (0 with fewer than 100 cells)"},
	"runner.alloc_mb_per_pass":           {Meaning: "harness heap bytes allocated during the reference pass"},
	"runner.gc_cycles_per_pass":          {Meaning: "GC cycles during the reference pass"},
	"runner.gc_pause_ms_per_pass":        {Meaning: "GC stop-the-world pause total during the reference pass"},
	"svc.submit_to_results_p50_ms":       {Meaning: "per job: POST /jobs sent → results body fully read"},
	"svc.submit_to_results_p90_ms":       {Meaning: "same, p90"},
	"svc.submit_to_results_p99_ms":       {Meaning: "same, p99 (0 with fewer than 1000 jobs)"},
	"svc.first_event_p50_ms":             {Meaning: "per job: POST /jobs sent → first progress line on /events"},
	"svc.http_rtt_us":                    {Meaning: "GET /healthz over loopback, median"},
	"svc.submit_p50_ms":                  {Meaning: "POST /jobs alone"},
	"svc.results_fetch_p50_ms":           {Meaning: "GET /jobs/{id}/results of a finished job"},
	"svc.sim_wall_share":                 {Meaning: "daemon /metrics sim_wall_sec over the timed part ÷ Σ job latency"},
	"svc.overhead_ms_per_job":            {Meaning: "(Σ job latency − sim_wall_sec) ÷ jobs"},
	"svc.store.get_mem_us":               {Meaning: "probe: in-process Store.GetOrRun, memory tier"},
	"svc.store.get_disk_us":              {Meaning: "probe: same, disk tier (fresh Store on a populated dir)"},
	"svc.store.put_us":                   {Meaning: "probe: same, miss with a stub run (marshal + temp file + rename)"},
	"svc.store.mem_hits":                 {Meaning: "count: /cache/stats mem_hits the timed part added (racy split with shared after a restart)"},
	"svc.store.disk_hits":                {Meaning: "count: /cache/stats disk_hits the timed part added", Exact: true},
	"svc.store.misses":                   {Meaning: "count: /cache/stats misses the timed part added", Exact: true},
	"svc.store.shared":                   {Meaning: "count: /cache/stats shared the timed part added"},
	"svc.store.evictions":                {Meaning: "count: /cache/stats evictions the timed part added", Exact: true},
	"svc.store.hit_ratio":                {Meaning: "count: (mem+disk+shared) ÷ all lookups", Exact: true},
	"svc.journal.append_us":              {Meaning: "probe: Journal.Append of a submit record, no fsync"},
	"svc.journal.replay_ms_per_1k":       {Meaning: "probe: OpenJournal + Server.Replay of 1000 finished jobs"},
	"svc.restart_ready_ms":               {Meaning: "daemon exec → /readyz (svc_warm: restart on the populated dir)"},
	"svc.encode_us_per_cell":             {Meaning: "results fetch time ÷ cells in the job"},
	"svc.result_bytes_per_cell":          {Meaning: "count: results body bytes ÷ cells"},
	"svc.client_retries":                 {Meaning: "count: HTTP requests beyond the four a job needs"},
	"svc.daemon_cpu_s":                   {Meaning: "daemon CPU over the timed part (on-CPU ns of its threads, /proc/<pid>/task/*/schedstat)"},
	"proc.cpu_s":                         {Meaning: "harness user+system CPU over the reference pass's timed part"},
	"proc.cpu_util":                      {Meaning: "(harness + daemon CPU) ÷ pass wall ÷ 2 processors"},
	"trace.overhead_pct":                 {Meaning: "(traced pass wall − untraced reference pass wall) ÷ reference"},
	"build.go_build_s":                   {Meaning: "go build of the harness and, for svc_*, of cmd/nimbus-svc"},
}
