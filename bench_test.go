package nimbus

import (
	"math"
	"testing"

	"nimbus/internal/exp"
	"nimbus/internal/fft"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	scheme "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/workload"
)

// One benchmark per paper artifact: each iteration regenerates the
// table/figure at the quick horizon and reports simulated seconds per
// wall second. Run a single artifact with e.g.
//
//	go test -bench BenchmarkFig08 -benchtime 1x
//
// The full-horizon reproductions are produced by cmd/nimbus-bench -full.
func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := exp.Run(id, int64(i)+1, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig01(b *testing.B)  { benchExperiment(b, "fig01") }
func BenchmarkFig03(b *testing.B)  { benchExperiment(b, "fig03") }
func BenchmarkFig04(b *testing.B)  { benchExperiment(b, "fig04") }
func BenchmarkFig05(b *testing.B)  { benchExperiment(b, "fig05") }
func BenchmarkFig06(b *testing.B)  { benchExperiment(b, "fig06") }
func BenchmarkFig07(b *testing.B)  { benchExperiment(b, "fig07") }
func BenchmarkFig08(b *testing.B)  { benchExperiment(b, "fig08") }
func BenchmarkFig09(b *testing.B)  { benchExperiment(b, "fig09") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }
func BenchmarkFig26(b *testing.B)  { benchExperiment(b, "fig26") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTableE(b *testing.B) { benchExperiment(b, "tableE") }
func BenchmarkMobile(b *testing.B) { benchExperiment(b, "mobile") }
func BenchmarkTopo(b *testing.B)   { benchExperiment(b, "topo") }

// Micro-benchmarks of the hot paths.

func BenchmarkFFT512(b *testing.B) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = 48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := fft.Analyze(samples, 100)
		if spec.Mag[spec.BinFor(5)] == 0 {
			b.Fatal("no signal")
		}
	}
}

func BenchmarkGoertzel(b *testing.B) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = math.Sin(2 * math.Pi * 5 * float64(i) * 0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fft.Goertzel(samples, 100, 5)
	}
}

func BenchmarkDetectorTick(b *testing.B) {
	det := NewDetector(DefaultDetectorConfig())
	for i := 0; i < det.WindowSamples(); i++ {
		det.AddSample(48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		det.AddSample(48e6)
		if det.Elasticity(5) <= 0 {
			b.Fatal("eta <= 0")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput: one Cubic
// flow saturating a 96 Mbit/s link; the metric is simulated packet
// deliveries per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.NewRig(exp.NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: int64(i)})
		s := exp.MustScheme("cubic", r.MuBps)
		r.AddFlow(s, 50*sim.Millisecond, 0)
		r.Sch.RunUntil(10 * sim.Second)
		b.ReportMetric(float64(r.Link.DeliveredPackets)/float64(b.N), "pkts/op")
	}
}

// BenchmarkTopologyThroughput measures multi-hop forwarding in steady
// state: one packet pushed end-to-end across the access-hop topology
// (two links, an inter-hop wire, receiver delivery, pool recycling) per
// op, with the rig built once and all pools warmed before the timer
// starts. The CI bench smoke gates allocs/op at zero: hop forwarding
// must stay on delay lines and the shared packet pool.
func BenchmarkTopologyThroughput(b *testing.B) {
	r := exp.NewRig(exp.NetConfig{
		RateMbps: 96, RTT: 10 * sim.Millisecond, Buffer: 100 * sim.Millisecond,
		Seed: 1, Topology: "access-hop",
	})
	att := r.Net.AttachOn("", 10*sim.Millisecond)
	att.Receive = func(p *netem.Packet, now sim.Time) { r.Net.PutPacket(p) }
	seq := uint64(0)
	send := func() {
		p := r.Net.GetPacket()
		*p = netem.Packet{Seq: seq, Size: 1500}
		seq++
		att.Send(p)
		r.Sch.Run()
	}
	for i := 0; i < 256; i++ {
		send() // warm the packet pool, timer pool, and queue rings
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkNimbusFlow measures the full Nimbus stack (pulses, ẑ, the
// detector's band read every 10 ms) in simulation.
func BenchmarkNimbusFlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := exp.NewRig(exp.NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: int64(i)})
		s := exp.MustScheme("nimbus", r.MuBps)
		r.AddFlow(s, 50*sim.Millisecond, 0)
		r.Sch.RunUntil(10 * sim.Second)
	}
}

// BenchmarkSessionChurn measures what a churn cell pays per session: one
// web(load=96) generator of Cubic session flows on a 192 Mbit/s rig
// (the benchmark's churn_sessions cell without its long-lived flow), rig
// construction included, for 2 simulated seconds per op. The per-packet
// gates above read 0 allocs while a churn pass allocates by the session
// (sender, controller, flow source, random stream), so the CI bench
// smoke gates this allocs/op; sessions/op is the behavioural fingerprint.
func BenchmarkSessionChurn(b *testing.B) {
	spec, err := workload.ParseSpec("web(load=96)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var started int
	for i := 0; i < b.N; i++ {
		r := exp.NewRig(exp.NetConfig{RateMbps: 192, RTT: 50 * sim.Millisecond, Buffer: 100 * sim.Millisecond, Seed: 1})
		g := &workload.Generator{Net: r.Net, Rng: r.Rng.Split("churn"), Spec: spec, RTT: 50 * sim.Millisecond, MuBps: r.MuBps}
		if err := g.Start(0); err != nil {
			b.Fatal(err)
		}
		r.Sch.RunUntil(2 * sim.Second)
		started = g.Stats.Snapshot(2 * sim.Second).Started
	}
	b.ReportMetric(float64(started), "sessions/op")
}

// BenchmarkSweepFluidVsPacket runs the fidelity family's headline cell
// (a Nimbus flow against 84 Mbit/s of CBR cross traffic, 0.875 of the
// bottleneck) twice per iteration — exact per-packet cross traffic, then
// the same aggregate as a fluid rate process — and reports the event
// reduction the fluid path buys. The CI bench smoke gates events_ratio
// at >= 3x (scripts/check_bench.sh); the fidelity experiment family
// gates the accuracy side of the same trade.
func BenchmarkSweepFluidVsPacket(b *testing.B) {
	base := runner.Scenario{
		Scheme: scheme.New("nimbus"), RateMbps: 96, RTTms: 50, BufferMs: 100,
		Cross: "cbr", CrossRateMbps: 84,
		DurationSec: 10, Seed: 1,
	}
	fluid := base
	fluid.FluidCross = "on"
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		base.Seed, fluid.Seed = int64(i)+1, int64(i)+1
		rp := exp.RunScenario(base)
		rf := exp.RunScenario(fluid)
		if rp.Err != "" || rf.Err != "" {
			b.Fatalf("packet err=%q fluid err=%q", rp.Err, rf.Err)
		}
		ratio = float64(rp.Events) / float64(rf.Events)
	}
	b.ReportMetric(ratio, "events_ratio")
}
