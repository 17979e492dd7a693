package core

import (
	"math"
	"testing"
	"testing/quick"

	"nimbus/internal/sim"
)

func TestPulseZeroMean(t *testing.T) {
	// The asymmetric pulse must integrate to ~zero over one period.
	p := Pulse{Freq: 5, Amplitude: 12e6}
	period := sim.FromSeconds(1 / p.Freq)
	steps := 20000
	sum := 0.0
	for i := 0; i < steps; i++ {
		tm := sim.Time(float64(period) * float64(i) / float64(steps))
		sum += p.Offset(tm)
	}
	mean := sum / float64(steps)
	if math.Abs(mean) > p.Amplitude*1e-3 {
		t.Fatalf("pulse mean = %v (amplitude %v), want ~0", mean, p.Amplitude)
	}
}

func TestPulseShape(t *testing.T) {
	p := Pulse{Freq: 5, Amplitude: 24e6} // period 200 ms
	// Peak of the positive half-sine at T/8 = 25 ms.
	peak := p.Offset(25 * sim.Millisecond)
	if math.Abs(peak-24e6) > 1e3 {
		t.Fatalf("positive peak = %v, want %v", peak, 24e6)
	}
	// Trough of the negative half-sine at T/4 + 3T/8 = 125 ms.
	trough := p.Offset(125 * sim.Millisecond)
	if math.Abs(trough+8e6) > 1e3 {
		t.Fatalf("negative trough = %v, want %v", trough, -8e6)
	}
	// Boundaries are zero.
	for _, at := range []sim.Time{0, 50 * sim.Millisecond, 200 * sim.Millisecond} {
		if v := p.Offset(at); math.Abs(v) > 1 {
			t.Fatalf("offset at %v = %v, want 0", at, v)
		}
	}
	if p.MinBaseRate() != 8e6 {
		t.Fatalf("MinBaseRate = %v, want A/3", p.MinBaseRate())
	}
}

func TestPulsePeriodicity(t *testing.T) {
	p := Pulse{Freq: 5, Amplitude: 1e6}
	f := func(msRaw uint16) bool {
		ms := sim.Time(msRaw%1000) * sim.Millisecond
		a := p.Offset(ms)
		b := p.Offset(ms + 200*sim.Millisecond) // one period later
		return math.Abs(a-b) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPulseDisabled(t *testing.T) {
	if (Pulse{}).Offset(123*sim.Millisecond) != 0 {
		t.Fatal("zero pulse must be silent")
	}
}

func TestEstimateZExact(t *testing.T) {
	// Fluid model: if we send S and receive R on a µ link, the cross rate
	// is exactly µS/R - S when the queue is busy.
	mu := 96e6
	S := 40e6
	z := 30e6
	// R = µ * S / (S + z)
	R := mu * S / (S + z)
	got := EstimateZ(mu, S, R)
	if math.Abs(got-z) > 1 {
		t.Fatalf("z = %v, want %v", got, z)
	}
}

func TestEstimateZClamps(t *testing.T) {
	if EstimateZ(96e6, 10e6, 0) != 0 {
		t.Fatal("R=0 must yield 0")
	}
	if EstimateZ(0, 10e6, 10e6) != 0 {
		t.Fatal("mu=0 must yield 0")
	}
	// R > expected (noise): z would be negative; must clamp to 0.
	if z := EstimateZ(96e6, 10e6, 20e6); z != 48e6-10e6 {
		// sanity: µS/R - S = 96*10/20 - 10 = 38
		t.Fatalf("z = %v", z)
	}
	if z := EstimateZ(96e6, 10e6, 11e6); z < 0 {
		t.Fatal("negative z escaped clamp")
	}
	// Huge S/R ratio: clamp at µ.
	if z := EstimateZ(96e6, 90e6, 1e6); z != 96e6 {
		t.Fatalf("z = %v, want clamp at mu", z)
	}
}

// Property: EstimateZ inverts the queue-sharing equation for all valid
// inputs.
func TestEstimateZProperty(t *testing.T) {
	f := func(sRaw, zRaw uint32) bool {
		mu := 96e6
		S := 1e6 + float64(sRaw%64)*1e6
		z := float64(zRaw%64) * 1e6
		if S+z < mu {
			// Queue not necessarily busy; the estimator is only
			// specified for a busy queue, skip.
			return true
		}
		R := mu * S / (S + z)
		got := EstimateZ(mu, S, R)
		return math.Abs(got-z) < 1e-3*mu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateSamplerPairedRates(t *testing.T) {
	var rs RateSampler
	// 10 packets of 1500 B sent 1 ms apart, acked 2 ms apart: S = 12 Mbps,
	// R = 6 Mbps.
	for i := 0; i < 10; i++ {
		sent := sim.Time(i) * sim.Millisecond
		acked := 100*sim.Millisecond + sim.Time(i)*2*sim.Millisecond
		rs.Add(sent, acked, 1500)
	}
	S, R, ok := rs.Rates(118*sim.Millisecond, 200*sim.Millisecond)
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(S-12e6) > 1e3 || math.Abs(R-6e6) > 1e3 {
		t.Fatalf("S=%v R=%v, want 12M/6M", S, R)
	}
}

func TestRateSamplerWindow(t *testing.T) {
	var rs RateSampler
	rs.Add(0, 10*sim.Millisecond, 1500)
	rs.Add(1*sim.Millisecond, 11*sim.Millisecond, 1500)
	// Old samples fall out of the window.
	_, _, ok := rs.Rates(10*sim.Second, 100*sim.Millisecond)
	if ok {
		t.Fatal("stale samples should not produce rates")
	}
	// A single packet is not enough.
	rs2 := RateSampler{}
	rs2.Add(0, 5*sim.Millisecond, 1500)
	if _, _, ok := rs2.Rates(10*sim.Millisecond, 100*sim.Millisecond); ok {
		t.Fatal("one packet should not produce rates")
	}
}

// TestRateSamplerMatchesSlice holds the sampler's ring to a plain slice
// of records trimmed from the front: the same (S, R, ok) at every read,
// to the bit, over ACKs arriving in bursts and after gaps longer than the
// window; and a warm sampler records and reads without allocating.
func TestRateSamplerMatchesSlice(t *testing.T) {
	const window = 50 * sim.Millisecond
	rng := sim.NewRand(5)
	var rs RateSampler
	var ref []srRec
	var now sim.Time
	step := func() srRec {
		now += rng.ExpTime(125 * sim.Microsecond)
		if rng.Intn(2000) == 0 {
			now += sim.Time(rng.Intn(200)) * sim.Millisecond
		}
		rec := srRec{now - 50*sim.Millisecond - sim.Time(rng.Intn(1e6)), now, 1 + rng.Intn(1500)}
		rs.Add(rec.sent, rec.acked, rec.bytes)
		return rec
	}
	for i := 0; i < 100000; i++ {
		ref = append(ref, step())
		if i%80 != 0 {
			continue
		}
		for len(ref) > 0 && ref[0].acked < now-window {
			ref = ref[1:]
		}
		wantS, wantR, wantOK := 0.0, 0.0, false
		if len(ref) >= 2 {
			total := -ref[0].bytes
			for _, r := range ref {
				total += r.bytes
			}
			ds := (ref[len(ref)-1].sent - ref[0].sent).Seconds()
			dr := (ref[len(ref)-1].acked - ref[0].acked).Seconds()
			if ds > 0 && dr > 0 && total > 0 {
				wantS, wantR, wantOK = float64(total)*8/ds, float64(total)*8/dr, true
			}
		}
		S, R, ok := rs.Rates(now, window)
		if math.Float64bits(S) != math.Float64bits(wantS) || math.Float64bits(R) != math.Float64bits(wantR) || ok != wantOK {
			t.Fatalf("read %d: Rates = %v %v %v, slice %v %v %v", i/80, S, R, ok, wantS, wantR, wantOK)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(20000, func() {
		step()
		if k++; k%80 == 0 {
			rs.Rates(now, window)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm RateSampler allocates %v/op, want 0", allocs)
	}
}

func TestBasicDelayRate(t *testing.T) {
	cfg := DefaultBasicDelayConfig()
	mu := 96e6
	// At the operating point (x = xmin + dt, S + z = µ) the rate is S.
	x := 50*sim.Millisecond + cfg.TargetDelay
	S, z := 40e6, 56e6
	got := BasicDelayRate(cfg, mu, S, z, x, 50*sim.Millisecond)
	if math.Abs(got-S) > 1e3 {
		t.Fatalf("equilibrium rate = %v, want %v", got, S)
	}
	// Spare capacity pulls the rate up.
	up := BasicDelayRate(cfg, mu, 20e6, 30e6, x, 50*sim.Millisecond)
	if up <= 20e6 {
		t.Fatalf("rate with spare capacity = %v, want > S", up)
	}
	// Excess queueing pushes the rate below S.
	down := BasicDelayRate(cfg, mu, S, 56e6, x+30*sim.Millisecond, 50*sim.Millisecond)
	if down >= S {
		t.Fatalf("rate with big queue = %v, want < S", down)
	}
	// Clamped to [0, mu].
	if BasicDelayRate(cfg, mu, 96e6, 96e6, x+sim.Second, 50*sim.Millisecond) < 0 {
		t.Fatal("negative rate escaped clamp")
	}
}

func TestDetectorSyntheticElastic(t *testing.T) {
	// ẑ with a clear 5 Hz oscillation: η must exceed the threshold.
	d := NewDetector(DetectorConfig{})
	dt := d.Config().SampleInterval.Seconds()
	for i := 0; i < d.WindowSamples(); i++ {
		tsec := float64(i) * dt
		z := 48e6 + 6e6*math.Sin(2*math.Pi*5*tsec)
		d.AddSample(z)
	}
	if !d.Ready() {
		t.Fatal("not ready after full window")
	}
	eta := d.Elasticity(5)
	if eta < 2 {
		t.Fatalf("synthetic elastic eta = %v, want >= 2", eta)
	}
	if !d.Elastic(5) {
		t.Fatal("Elastic() false")
	}
}

func TestDetectorSyntheticInelastic(t *testing.T) {
	// White noise ẑ: no pronounced peak at fp.
	d := NewDetector(DetectorConfig{})
	rng := sim.NewRand(9)
	for i := 0; i < d.WindowSamples(); i++ {
		d.AddSample(24e6 + rng.Normal(0, 3e6))
	}
	eta := d.Elasticity(5)
	if eta >= 2 {
		t.Fatalf("white-noise eta = %v, want < 2", eta)
	}
}

func TestDetectorOffFrequencyOscillation(t *testing.T) {
	// Oscillation at 7 Hz (inside the (5,10) band) must push eta DOWN,
	// not up.
	d := NewDetector(DetectorConfig{})
	dt := d.Config().SampleInterval.Seconds()
	for i := 0; i < d.WindowSamples(); i++ {
		tsec := float64(i) * dt
		d.AddSample(48e6 + 6e6*math.Sin(2*math.Pi*7*tsec))
	}
	if eta := d.Elasticity(5); eta >= 1 {
		t.Fatalf("7 Hz oscillation produced eta = %v at fp=5", eta)
	}
}

func TestDetectorExcludeFrequency(t *testing.T) {
	// Two tones: 5 Hz (ours) and 6 Hz (another pulser). Without
	// exclusion the 6 Hz tone suppresses eta; with exclusion it doesn't.
	d := NewDetector(DetectorConfig{})
	dt := d.Config().SampleInterval.Seconds()
	for i := 0; i < d.WindowSamples(); i++ {
		tsec := float64(i) * dt
		z := 48e6 + 6e6*math.Sin(2*math.Pi*5*tsec) + 5e6*math.Sin(2*math.Pi*6*tsec)
		d.AddSample(z)
	}
	plain := d.Elasticity(5)
	excl := d.ElasticityExcluding(5, 6)
	if excl <= plain {
		t.Fatalf("exclusion did not help: plain=%v excl=%v", plain, excl)
	}
	if excl < 2 {
		t.Fatalf("eta with exclusion = %v, want >= 2", excl)
	}
}

func TestDetectorHarmonicsDoNotMatter(t *testing.T) {
	// The asymmetric pulse has harmonics at 2fp, 3fp...; η only looks in
	// (fp, 2fp), so harmonics of our own pulse must not affect it. Build
	// a signal with 5 Hz + strong 10/15 Hz harmonics.
	d := NewDetector(DetectorConfig{})
	dt := d.Config().SampleInterval.Seconds()
	for i := 0; i < d.WindowSamples(); i++ {
		tsec := float64(i) * dt
		z := 48e6 + 5e6*math.Sin(2*math.Pi*5*tsec) +
			4e6*math.Sin(2*math.Pi*10*tsec) + 3e6*math.Sin(2*math.Pi*15*tsec)
		d.AddSample(z)
	}
	if eta := d.Elasticity(5); eta < 2 {
		t.Fatalf("harmonics suppressed eta = %v", eta)
	}
}

func TestDetectorDefaults(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	cfg := d.Config()
	if cfg.SampleInterval != 10*sim.Millisecond || cfg.FFTDuration != 5*sim.Second || cfg.Threshold != 2 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if d.WindowSamples() != 500 {
		t.Fatalf("window samples = %d, want 500", d.WindowSamples())
	}
	if d.Ready() {
		t.Fatal("ready before any samples")
	}
}

func TestMuEstimators(t *testing.T) {
	o := Oracle{Rate: 96e6}
	o.Observe(0, 50e6)
	if o.Mu() != 96e6 {
		t.Fatal("oracle must ignore observations")
	}
	m := NewMaxReceiveRate(10 * sim.Second)
	m.Observe(1*sim.Second, 40e6)
	m.Observe(2*sim.Second, 90e6)
	m.Observe(3*sim.Second, 60e6)
	if m.Mu() != 90e6 {
		t.Fatalf("max estimator = %v", m.Mu())
	}
}
