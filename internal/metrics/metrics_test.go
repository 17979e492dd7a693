package metrics

import (
	"math"
	"testing"

	"nimbus/internal/sim"
)

func TestMeter(t *testing.T) {
	m := NewMeter(sim.Second)
	m.Add(500*sim.Millisecond, 125000)  // bin 0: 1 Mbit
	m.Add(1500*sim.Millisecond, 250000) // bin 1: 2 Mbit
	s := m.SeriesMbps()
	if len(s) != 2 || math.Abs(s[0]-1) > 1e-9 || math.Abs(s[1]-2) > 1e-9 {
		t.Fatalf("series = %v", s)
	}
	if got := m.MeanMbps(0, 2*sim.Second); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if got := m.MeanMbps(1*sim.Second, 2*sim.Second); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean bin1 = %v", got)
	}
	if m.MeanMbps(5*sim.Second, 6*sim.Second) != 0 {
		t.Fatal("mean beyond data should be 0")
	}
}

func TestDelayRecorderReservoir(t *testing.T) {
	d := NewDelayRecorder(100, sim.NewRand(1))
	for i := 0; i < 10000; i++ {
		d.Add(sim.Time(i%50) * sim.Millisecond)
	}
	if len(d.Samples()) != 100 {
		t.Fatalf("reservoir size = %d", len(d.Samples()))
	}
	s := d.Summary()
	// Uniform over 0..49 ms: median near 24.5.
	if s.P50 < 10 || s.P50 > 40 {
		t.Fatalf("p50 = %v implausible for uniform 0-49", s.P50)
	}
}

func TestAccuracyTracker(t *testing.T) {
	var a AccuracyTracker
	// 10 s correct, 10 s wrong.
	a.Observe(0, true, true)
	a.Observe(10*sim.Second, true, false) // previous 10 s were correct
	a.Observe(20*sim.Second, false, false)
	if got := a.Accuracy(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("accuracy = %v, want 0.5", got)
	}
	if a.TotalScored() != 20*sim.Second {
		t.Fatalf("scored %v", a.TotalScored())
	}
}

func TestAccuracyTrackerWarmup(t *testing.T) {
	a := AccuracyTracker{Warmup: 10 * sim.Second}
	a.Observe(0, false, true) // wrong, but inside warmup
	a.Observe(10*sim.Second, true, true)
	a.Observe(20*sim.Second, true, true)
	if got := a.Accuracy(); got != 1 {
		t.Fatalf("accuracy = %v, want 1 (warmup excluded)", got)
	}
}

func TestFCTBuckets(t *testing.T) {
	recs := []FCTRecord{
		{SizeBytes: 10e3, FCT: 100 * sim.Millisecond},
		{SizeBytes: 12e3, FCT: 200 * sim.Millisecond},
		{SizeBytes: 100e3, FCT: 500 * sim.Millisecond},
		{SizeBytes: 1e6, FCT: 2 * sim.Second},
		{SizeBytes: 10e6, FCT: 5 * sim.Second},
		{SizeBytes: 100e6, FCT: 30 * sim.Second},
	}
	b := FCTBuckets(recs)
	if b["15KB"].N != 2 {
		t.Fatalf("15KB bucket n = %d", b["15KB"].N)
	}
	for _, name := range []string{"150KB", "1.5MB", "15MB", "150MB"} {
		if b[name].N != 1 {
			t.Fatalf("bucket %s n = %d", name, b[name].N)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{10, 10, 10, 10}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: %v", j)
	}
	if j := JainIndex([]float64{40, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("one-flow-takes-all: %v", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty: %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 0 {
		t.Fatalf("all-zero: %v", j)
	}
	mid := JainIndex([]float64{30, 10})
	if mid <= 0.5 || mid >= 1 {
		t.Fatalf("skewed shares should land in (1/n, 1): %v", mid)
	}
}

func TestJSDUniform(t *testing.T) {
	if d := JSDUniform([]float64{5, 5, 5}); math.Abs(d) > 1e-12 {
		t.Fatalf("uniform shares: %v", d)
	}
	if d := JSDUniform(nil); d != 0 {
		t.Fatalf("empty: %v", d)
	}
	// One flow starved: strictly positive, below the 1-bit ceiling.
	d := JSDUniform([]float64{10, 10, 0})
	if d <= 0 || d >= 1 {
		t.Fatalf("starved flow: %v", d)
	}
	// Concentration hurts more than mild skew.
	if JSDUniform([]float64{100, 1, 1}) <= JSDUniform([]float64{40, 30, 30}) {
		t.Fatal("JSD should grow with concentration")
	}
	// Scale invariance: shares, not magnitudes.
	a, b := JSDUniform([]float64{3, 1}), JSDUniform([]float64{300, 100})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("not scale invariant: %v vs %v", a, b)
	}
}
