package metrics

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nimbus/internal/sim"
	"nimbus/internal/stats"
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

// TestMeterMeanOverSilentTail: the mean over a window is bytes over the
// window asked for, not over the bins the meter happens to hold — a flow
// that delivered for 20 s and then went silent reads a third of its rate
// over [0, 60) and nothing over [30, 60). (The divisor used to be
// clipped to the last bin with data, so both read the 20 s rate.)
func TestMeterMeanOverSilentTail(t *testing.T) {
	m := NewMeter(sim.Second)
	for s := 0; s < 20; s++ {
		m.Add(sim.Time(s)*sim.Second+500*sim.Millisecond, 1500000) // 12 Mbit in every second
	}
	if got := m.MeanMbps(0, 20*sim.Second); math.Abs(got-12) > 1e-9 {
		t.Fatalf("mean over the active 20 s = %v, want 12", got)
	}
	if got := m.MeanMbps(0, 60*sim.Second); math.Abs(got-4) > 1e-9 {
		t.Fatalf("mean over [0, 60) = %v, want a third of the 20 s rate", got)
	}
	if got := m.MeanMbps(10*sim.Second, 30*sim.Second); math.Abs(got-6) > 1e-9 {
		t.Fatalf("mean over [10, 30) = %v, want half the rate", got)
	}
	if got := m.MeanMbps(30*sim.Second, 60*sim.Second); got != 0 {
		t.Fatalf("mean over the silent [30, 60) = %v, want 0", got)
	}
}

func TestDelayRecorderReservoir(t *testing.T) {
	d := NewDelayRecorder(100, sim.NewRand(1))
	for i := 0; i < 10000; i++ {
		d.Add(sim.Time(i%50) * sim.Millisecond)
	}
	if d.Len() != 100 {
		t.Fatalf("reservoir size = %d", d.Len())
	}
	s := d.Summary()
	// Uniform over 0..49 ms: median near 24.5.
	if s.P50 < 10 || s.P50 > 40 {
		t.Fatalf("p50 = %v implausible for uniform 0-49", s.P50)
	}
}

// flatRecorder is the recorder DelayRecorder replaced: one slice grown by
// append, the same reservoir rule, the same draws, and the same copy,
// sort and Welford pass behind its statistics.
type flatRecorder struct {
	cap, seen int
	samples   []float64
	rng       *sim.Rand
}

func (f *flatRecorder) add(delay sim.Time) {
	f.seen++
	if len(f.samples) < f.cap {
		f.samples = append(f.samples, delay.Millis())
		return
	}
	if j := f.rng.Intn(f.seen); j < f.cap {
		f.samples[j] = delay.Millis()
	}
}

func (f *flatRecorder) meanQuantiles(ps ...float64) (float64, []float64) {
	if len(f.samples) == 0 {
		return math.NaN(), stats.Percentiles(nil, ps...)
	}
	cp := append([]float64(nil), f.samples...)
	sort.Float64s(cp)
	var w stats.Welford
	for _, x := range cp {
		w.Add(x)
	}
	return w.Mean(), stats.PercentilesSorted(cp, ps...)
}

// TestDelayRecorderMatchesFlat: chunked storage changes nothing a reader
// can see, to the bit. Caps below one chunk, on and off chunk boundaries;
// add counts crossing chunk and cap boundaries.
func TestDelayRecorderMatchesFlat(t *testing.T) {
	pick := sim.NewRand(3)
	caps := []int{1, 100, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17}
	for i := 0; i < 10; i++ {
		caps = append(caps, 1+pick.Intn(4*chunkLen))
	}
	for _, cp := range caps {
		for _, n := range []int{0, 1, pick.Intn(6 * chunkLen), chunkLen, chunkLen + 1, cp - 1, cp, cp + 1, 2*cp + 5} {
			d := NewDelayRecorder(cp, sim.NewRand(int64(cp)))
			f := &flatRecorder{cap: cp, rng: sim.NewRand(int64(cp))}
			for k := 0; k < n; k++ {
				x := sim.Time(pick.Intn(1e9))
				d.Add(x)
				f.add(x)
			}
			if d.Len() != len(f.samples) || !slices.Equal(d.Samples(), f.samples) {
				t.Fatalf("cap %d, %d adds: Len %d and Samples differ from the flat recorder's %d", cp, n, d.Len(), len(f.samples))
			}
			mean, qs := d.MeanQuantiles(0.5, 0.95)
			wantMean, wantQs := f.meanQuantiles(0.5, 0.95)
			if !sameBits(mean, wantMean) || !sameBits(qs[0], wantQs[0]) || !sameBits(qs[1], wantQs[1]) {
				t.Fatalf("cap %d, %d adds: MeanQuantiles %v %v, flat %v %v", cp, n, mean, qs, wantMean, wantQs)
			}
			got, want := reflect.ValueOf(d.Summary()), reflect.ValueOf(stats.Summarize(f.samples))
			if got.Field(0).Int() != want.Field(0).Int() {
				t.Fatalf("cap %d, %d adds: Summary.N %v, flat %v", cp, n, got.Field(0), want.Field(0))
			}
			for k := 1; k < got.NumField(); k++ {
				if !sameBits(got.Field(k).Float(), want.Field(k).Float()) {
					t.Fatalf("cap %d, %d adds: Summary.%s = %v, flat %v", cp, n, got.Type().Field(k).Name, got.Field(k), want.Field(k))
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAddAllocsBelowCap: recording allocates one chunk per chunkLen
// samples, plus the chunk table's own doublings, and nothing per sample.
func TestAddAllocsBelowCap(t *testing.T) {
	const chunks = 40 // 163 840 adds, below the default cap of 200 000
	rng := sim.NewRand(1)
	var d *DelayRecorder
	allocs := testing.AllocsPerRun(1, func() {
		d = NewDelayRecorder(0, rng)
		for i := 0; i < chunks*chunkLen; i++ {
			d.Add(sim.Millisecond)
		}
	})
	if d.Len() != chunks*chunkLen {
		t.Fatalf("recorded %d samples, want %d", d.Len(), chunks*chunkLen)
	}
	// The recorder, 40 chunks, and a table that doubles 1 -> 64.
	if allocs > chunks+8 {
		t.Fatalf("%v allocations for %d Adds, want <= %d", allocs, chunks*chunkLen, chunks+8)
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
