package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/exp"
	"nimbus/internal/fft"
	"nimbus/internal/metrics"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	"nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/svc"
	"nimbus/internal/workload"
)

// Probes are isolated drives of one layer's exported API at the
// operating point the workloads induce. They run in every traced run,
// whatever the workload, so a layer's unit cost can be multiplied by the
// counts the workload produced. Each is sized to tens of milliseconds:
// they are informational (no bound), and the traced run has a budget.

// probeSet is the probes' results by metric name.
type probeSet map[string]float64

// apply copies every probe value into the run's metrics.
func (p probeSet) apply(res *runResult) {
	for name, v := range p {
		res.set(name, v, 1)
	}
}

// nsPerOp times op(n) — which must perform n operations — growing n
// until a measurement lasts at least 20 ms, and returns the median of
// three such measurements in ns per operation.
func nsPerOp(op func(n int)) float64 {
	n := 1000
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= 20*time.Millisecond || n >= 1<<28 {
			break
		}
		n *= 4
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		op(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func runProbes() probeSet {
	p := probeSet{}
	probeScheduler(p)
	probeNetem(p)
	probeFlows(p)
	probeDetector(p)
	probeCross(p)
	probeWorkload(p)
	probeMetrics(p)
	probeStore(p)
	probeJournal(p)
	return p
}

// schedPopulation arms n self-rearming no-op events with gaps drawn from
// a fixed table (10 µs–1 ms): the pacing-timer population of n flows.
func schedPopulation(s *sim.Scheduler, n int) {
	rng := sim.NewRand(7)
	gaps := make([]sim.Time, 1024)
	for i := range gaps {
		gaps[i] = sim.Time(10+rng.Intn(990)) * sim.Microsecond
	}
	gi := 0
	var fire func()
	fire = func() {
		gi++
		s.AfterFunc(gaps[gi&1023], fire)
	}
	for i := 0; i < n; i++ {
		s.AfterFunc(sim.Time(i)*sim.Microsecond, fire)
	}
}

func probeScheduler(p probeSet) {
	perEvent := func(wheel bool, pending int) float64 {
		s := sim.NewScheduler()
		if wheel {
			s.UseTimerWheel()
		}
		schedPopulation(s, pending)
		s.RunUntil(50 * sim.Millisecond) // reach steady-state bucket sizes
		// Mean gap ~0.5 ms, so `pending` timers fire ~2000*pending
		// events per simulated second.
		end := s.Now()
		step := sim.FromSeconds(200000.0 / (2000 * float64(pending)))
		var xs []float64
		for i := 0; i < 5; i++ {
			e0 := s.Executed
			t0 := time.Now()
			end += step
			s.RunUntil(end)
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(s.Executed-e0))
		}
		return median(xs)
	}
	p["sim.sched_ns_per_event_heap"] = perEvent(false, 64)
	p["sim.sched_ns_per_event_wheel"] = perEvent(true, 10000)

	s := sim.NewScheduler()
	schedPopulation(s, 64)
	s.RunUntil(10 * sim.Millisecond)
	noop := func() {}
	var tm *sim.Timer
	p["sim.timer_rearm_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			tm = s.Rearm(tm, s.Now()+sim.Time(100+i&1023)*sim.Microsecond, noop)
		}
	})
}

func probeNetem(p probeSet) {
	// A bare link: 32 packets circulating through DropTail, the receiver
	// handing each straight back. One 1500-byte packet takes 125 µs at
	// 96 Mbit/s.
	linkProbe := func(fluid bool) (nsPerPkt, allocsPerPkt float64) {
		sch := sim.NewScheduler()
		l := netem.NewLink(sch, 96e6, netem.NewDropTail(1<<20))
		if fluid {
			l.EnableFluid(1 << 20)
			l.AddFluidRate(48e6)
		}
		l.Deliver = func(pk *netem.Packet, now sim.Time) { l.Send(pk) }
		for i := 0; i < 32; i++ {
			l.Send(&netem.Packet{Seq: uint64(i), Size: 1500})
		}
		end := 10 * sim.Millisecond
		sch.RunUntil(end)
		var xs []float64
		m0, d0 := mallocs(), l.DeliveredPackets
		for i := 0; i < 5; i++ {
			before := l.DeliveredPackets
			t0 := time.Now()
			end += 5 * sim.Second
			sch.RunUntil(end)
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(l.DeliveredPackets-before))
		}
		return median(xs), float64(mallocs()-m0) / float64(l.DeliveredPackets-d0)
	}
	p["netem.link_ns_per_pkt"], p["netem.allocs_per_pkt"] = linkProbe(false)
	p["netem.fluid_fg_ns_per_pkt"], _ = linkProbe(true)

	// One packet end to end across the two-link access-hop topology.
	r := exp.NewRig(exp.NetConfig{
		RateMbps: 96, RTT: 10 * sim.Millisecond, Buffer: 100 * sim.Millisecond,
		Seed: 1, Topology: "access-hop",
	})
	att := r.Net.AttachOn("", 10*sim.Millisecond)
	att.Receive = func(pk *netem.Packet, now sim.Time) { r.Net.PutPacket(pk) }
	seq := uint64(0)
	hops := float64(len(r.Net.Links()))
	p["netem.topology_ns_per_pkt_hop"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			pk := r.Net.GetPacket()
			*pk = netem.Packet{Seq: seq, Size: 1500}
			seq++
			att.Send(pk)
			r.Sch.Run()
		}
	}) / hops

	// A fluid rate change settles the analytic backlog since the last
	// one; 1 ms of simulated time passes between changes, as between a
	// fluid source's resamples.
	sch := sim.NewScheduler()
	l := netem.NewLink(sch, 96e6, netem.NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(84e6)
	now := sim.Time(0)
	p["netem.fluid_ns_per_rate_change"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			now += sim.Millisecond
			sch.RunUntil(now)
			d := 24e6
			if i&1 == 1 {
				d = -24e6
			}
			l.AddFluidRate(d)
		}
	})
}

// flowProbe runs one backlogged flow of the given scheme alone on a
// 96 Mbit/s, 50 ms link for 10 simulated seconds.
func flowProbe(spec string) (nsPerPkt, eventsPerPkt, allocsPerPkt float64) {
	var xs []float64
	for i := 0; i < 3; i++ {
		r := exp.NewRig(exp.NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1})
		r.AddFlow(exp.MustScheme(spec, r.MuBps), 50*sim.Millisecond, 0)
		m0 := mallocs()
		t0 := time.Now()
		r.Sch.RunUntil(10 * sim.Second)
		d := time.Since(t0)
		pkts := float64(r.Link.DeliveredPackets)
		xs = append(xs, float64(d.Nanoseconds())/pkts)
		eventsPerPkt = float64(r.Sch.Executed) / pkts
		allocsPerPkt = float64(mallocs()-m0) / pkts
	}
	return median(xs), eventsPerPkt, allocsPerPkt
}

func probeFlows(p probeSet) {
	// cwnd=200 is half the 400-packet BDP: ACK-clocked, never queued.
	p["transport.flow_ns_per_pkt"], p["transport.events_per_pkt"], p["transport.allocs_per_pkt"] = flowProbe("fixedwindow(cwnd=200)")
	p["cc.cubic_flow_ns_per_pkt"], _, _ = flowProbe("cubic")
	p["cc.bbr_flow_ns_per_pkt"], _, _ = flowProbe("bbr")
	p["cc.copa_flow_ns_per_pkt"], _, _ = flowProbe("copa")
	p["core.nimbus_flow_ns_per_pkt"], _, _ = flowProbe("nimbus")
}

// pulseWindow is the detector's input as the workloads produce it: 500
// samples at 100 Hz of a rate around 48 Mbit/s carrying a 5 Hz pulse.
func pulseWindow() []float64 {
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = 48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01)
	}
	return samples
}

func probeDetector(p probeSet) {
	tick := func(rfft bool) float64 {
		cfg := core.DefaultDetectorConfig()
		cfg.RFFT = rfft
		det := core.NewDetector(cfg)
		for _, z := range pulseWindow() {
			det.AddSample(z)
		}
		eta := 0.0
		return nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				det.AddSample(48e6)
				eta += det.Elasticity(5)
			}
		})
	}
	p["core.detector_tick_ns"] = tick(false)
	p["core.detector_tick_ns_rfft"] = tick(true)

	samples := pulseWindow()
	size := fft.NextPow2(len(samples))
	plan := fft.NewPlan(size, 100)
	var spec fft.Spectrum
	p["fft.analyze_ns_plan"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			spec = plan.AnalyzeInto(spec, samples)
		}
	})
	rplan := fft.NewRealPlan(size, 100)
	p["fft.analyze_ns_realplan"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			spec = rplan.AnalyzeInto(spec, samples)
		}
	})
	mag := 0.0
	p["fft.goertzel_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			mag += fft.Goertzel(samples, 100, 5)
		}
	})
	sink += int(mag) + len(spec.Mag)
}

func probeCross(p probeSet) {
	// Poisson packets alone: source arrival + link + delivery.
	r := exp.NewRig(exp.NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1})
	crosstraffic.NewPoisson(r.Net, 50*sim.Millisecond, 48e6, r.Rng.Split("poisson")).Start(0)
	t0 := time.Now()
	r.Sch.RunUntil(10 * sim.Second)
	p["crosstraffic.poisson_ns_per_pkt"] = float64(time.Since(t0).Nanoseconds()) / float64(r.Link.DeliveredPackets)

	// The same load as a fluid rate process: every event is a resample.
	rf := exp.NewRig(exp.NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1, Fluid: "on"})
	if err := exp.AddCross(rf, "poisson", 48e6, 50*sim.Millisecond); err != nil {
		fmt.Fprintf(os.Stderr, "probe crosstraffic.fluid_ns_per_resample: %v\n", err)
		return
	}
	t0 = time.Now()
	rf.Sch.RunUntil(100 * sim.Second)
	if rf.Sch.Executed > 0 {
		p["crosstraffic.fluid_ns_per_resample"] = float64(time.Since(t0).Nanoseconds()) / float64(rf.Sch.Executed)
	}
}

func probeWorkload(p probeSet) {
	// The churn workload's session process with no long-lived flow
	// beside it: spawn, transfer, teardown.
	r := exp.NewRig(exp.NetConfig{RateMbps: 192, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1, TimerWheel: true})
	gen := &workload.Generator{
		Net: r.Net, Rng: r.Rng.Split("churn"), Spec: workload.MustParseSpec("web(load=96)"),
		RTT: 50 * sim.Millisecond, MuBps: r.MuBps,
	}
	if err := gen.Start(0); err != nil {
		fmt.Fprintf(os.Stderr, "probe workload.ns_per_session: %v\n", err)
		return
	}
	t0 := time.Now()
	r.Sch.RunUntil(5 * sim.Second)
	d := time.Since(t0)
	if sm := gen.Stats.Snapshot(5 * sim.Second); sm.Started > 0 {
		p["workload.ns_per_session"] = float64(d.Nanoseconds()) / float64(sm.Started)
	}
}

func probeMetrics(p probeSet) {
	p["metrics.delay_add_ns"] = nsPerOp(func(n int) {
		// A fresh recorder per batch keeps Add on its append path, below
		// the reservoir cap, as in a 30 sim-s cell.
		for done := 0; done < n; {
			rec := metrics.NewDelayRecorder(0, sim.NewRand(1))
			batch := n - done
			if batch > 100000 {
				batch = 100000
			}
			for i := 0; i < batch; i++ {
				rec.Add(sim.Time(i) * sim.Microsecond)
			}
			done += batch
		}
	})
}

// probeResult is a realistic result row for the store and journal
// probes: a scenario and the dozen metrics a Nimbus cell reports.
func probeResult(i int) runner.Result {
	sc := runner.Scenario{
		Name: fmt.Sprintf("probe-%d", i), Scheme: scheme.New("nimbus"),
		RateMbps: 24, RTTms: 20, BufferMs: 100, DurationSec: 4, Seed: int64(i) + 1,
	}
	m := map[string]float64{}
	for _, k := range []string{"mean_mbps", "utilization", "dropped_packets", "qdelay_mean_ms", "qdelay_p50_ms",
		"qdelay_p95_ms", "mode_switches", "eta", "competitive_mode", "mode_accuracy"} {
		m[k] = float64(len(k)) + float64(i)/7
	}
	return runner.Result{Scenario: sc, Metrics: m, Events: 123456, WallSec: 0.0123}
}

// probeDir makes a scratch directory for the in-process daemon probes.
// It lives under the system temp dir, which benchmark/run.sh points
// inside the checkout.
func probeDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "nimbus-probe-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

func probeStore(p probeSet) {
	dir, cleanup, err := probeDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.store: %v\n", err)
		return
	}
	defer cleanup()
	const n = 400
	ctx := context.Background()
	st, err := svc.NewStore(dir, n*2, "probe")
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.store: %v\n", err)
		return
	}
	rows := make([]runner.Result, n)
	keys := make([]string, n)
	for i := range rows {
		rows[i] = probeResult(i)
		keys[i] = st.Key(rows[i].Scenario)
	}
	noRun := func() runner.Result { return runner.Result{Err: "probe: unexpected miss"} }
	timeAll := func(s *svc.Store, want svc.Outcome, run func(i int) func() runner.Result) float64 {
		t0 := time.Now()
		for i := range keys {
			if _, oc := s.GetOrRun(ctx, keys[i], run(i)); oc != want {
				fmt.Fprintf(os.Stderr, "probe svc.store: key %d came back %s, want %s\n", i, oc, want)
			}
		}
		return time.Since(t0).Seconds() * 1e6 / n
	}
	p["svc.store.put_us"] = timeAll(st, svc.Miss, func(i int) func() runner.Result {
		return func() runner.Result { return rows[i] }
	})
	p["svc.store.get_mem_us"] = timeAll(st, svc.HitMem, func(int) func() runner.Result { return noRun })
	// A fresh store on the populated directory has an empty memory tier:
	// every first lookup reads, parses and key-checks a file.
	cold, err := svc.NewStore(dir, n*2, "probe")
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.store: %v\n", err)
		return
	}
	p["svc.store.get_disk_us"] = timeAll(cold, svc.HitDisk, func(int) func() runner.Result { return noRun })
}

func probeJournal(p probeSet) {
	dir, cleanup, err := probeDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
		return
	}
	defer cleanup()
	jdir := filepath.Join(dir, "journal")
	j, _, err := svc.OpenJournal(jdir, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
		return
	}
	// 1000 finished jobs of one small grid, as svc_warm leaves behind.
	const jobs = 1000
	grid := svcJobs(1, 1)[0]
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		id := fmt.Sprint(i + 1)
		if err := j.Append(svc.Record{Type: "submit", ID: id, Grid: &grid, Workers: 1}); err != nil {
			fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
			return
		}
		if err := j.Append(svc.Record{Type: "done", ID: id, State: svc.JobDone}); err != nil {
			fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
			return
		}
	}
	p["svc.journal.append_us"] = time.Since(t0).Seconds() * 1e6 / (2 * jobs)
	if err := j.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
		return
	}

	// Replay is what stands between exec and /readyz on a restart:
	// reading the WAL, then rebuilding and relaunching every job. The
	// jobs re-resolve through the store on their own goroutines; a stub
	// run stands in for the simulator.
	st, err := svc.NewStore(dir, 0, "probe")
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
		return
	}
	t0 = time.Now()
	j2, recs, err := svc.OpenJournal(jdir, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe svc.journal: %v\n", err)
		return
	}
	defer j2.Close()
	srv := &svc.Server{
		Store: st, Workers: 1, Journal: j2,
		Run: func(sc runner.Scenario) runner.Result {
			return runner.Result{Scenario: sc, Metrics: map[string]float64{"mean_mbps": 1}, Events: 1}
		},
	}
	srv.Start()
	n := srv.Replay(recs)
	p["svc.journal.replay_ms_per_1k"] = time.Since(t0).Seconds() * 1e3 * 1000 / float64(jobs)
	if n != jobs {
		fmt.Fprintf(os.Stderr, "probe svc.journal: replayed %d jobs, want %d\n", n, jobs)
	}
	// Wait for the relaunched jobs before the directory goes away.
	h := srv.Handler()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m svc.Metrics
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err == nil && m.JobsRunning == 0 {
			break
		}
	}
}
