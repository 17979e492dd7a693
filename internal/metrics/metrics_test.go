package metrics

import (
	"fmt"
	"maps"
	"math"
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
	_, qs := d.MeanQuantiles(0.5)
	// Uniform over 0..49 ms: median near 24.5.
	if qs[0] < 10 || qs[0] > 40 {
		t.Fatalf("p50 = %v implausible for uniform 0-49", qs[0])
	}
}

// flatRecorder is the recorder DelayRecorder replaced: one slice of
// float64 milliseconds grown by append, the same reservoir rule, the same
// draws, and the same copy, sort and Welford pass behind its statistics.
type flatRecorder struct {
	cap, seen int
	samples   []float64
	rng       *sim.Rand
	wide      bool // it stored a delay outside [0, 2^32) ns
}

func (f *flatRecorder) add(delay sim.Time) {
	f.seen++
	j := len(f.samples)
	if j >= f.cap {
		if j = f.rng.Intn(f.seen); j >= f.cap {
			return
		}
	}
	f.wide = f.wide || delay < 0 || delay >= 1<<32
	if j == len(f.samples) {
		f.samples = append(f.samples, delay.Millis())
	} else {
		f.samples[j] = delay.Millis()
	}
}

// stored returns d's retained samples in milliseconds, in storage order.
func stored(d *DelayRecorder) []float64 {
	var out []float64
	if d.widened {
		for _, r := range runs(d.wide, d.n) {
			for _, v := range r {
				out = append(out, v.Millis())
			}
		}
		return out
	}
	for _, r := range runs(d.narrow, d.n) {
		for _, v := range r {
			out = append(out, sim.Time(v).Millis())
		}
	}
	return out
}

// record feeds the same stream to a recorder and the flat reference and
// checks what each stores: the same samples at the same positions, in
// 64-bit slots exactly when a stored sample needed them.
func record(t *testing.T, label string, cp int, seed int64, stream []sim.Time) (*DelayRecorder, *flatRecorder) {
	t.Helper()
	d := NewDelayRecorder(cp, sim.NewRand(seed))
	f := &flatRecorder{cap: d.Cap, rng: sim.NewRand(seed)}
	for _, x := range stream {
		d.Add(x)
		f.add(x)
	}
	if d.Len() != len(f.samples) || !slices.Equal(stored(d), f.samples) {
		t.Fatalf("%s: Len %d and stored samples differ from the flat recorder's %d", label, d.Len(), len(f.samples))
	}
	if d.widened != f.wide {
		t.Fatalf("%s: recorder wide %v, flat recorder stored a sample outside 32 bits: %v", label, d.widened, f.wide)
	}
	return d, f
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

// TestDelayRecorderMatchesFlat: chunked 32-bit storage, and the 64-bit
// storage a recorder widens to, change nothing a reader can see, to the
// bit. Caps below one chunk, on and off chunk boundaries; add counts
// crossing chunk and cap boundaries; and streams that leave 32 bits below
// the cap, exactly at it (the last append and the first reservoir draw),
// and after reservoir replacements.
func TestDelayRecorderMatchesFlat(t *testing.T) {
	pick := sim.NewRand(3)
	caps := []int{1, 100, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17}
	boundaries := len(caps)
	for i := 0; i < 10; i++ {
		caps = append(caps, 1+pick.Intn(4*chunkLen))
	}
	for ci, cp := range caps {
		for _, n := range []int{0, 1, pick.Intn(6 * chunkLen), chunkLen, chunkLen + 1, cp - 1, cp, cp + 1, 2*cp + 5} {
			stream := make([]sim.Time, max(n, 0))
			for k := range stream {
				stream[k] = sim.Time(pick.Intn(1 << 32))
			}
			label := fmt.Sprintf("cap %d, %d adds", cp, n)
			d, f := record(t, label, cp, int64(cp), stream)
			checkReads(t, label, d, f)
			// On the boundary caps, the same stream with one sample past
			// 32 bits at each of these places: before the cap, the last
			// append, the first reservoir draw, after replacements.
			for _, at := range []int{n / 2, cp - 1, cp, cp + n/2} {
				if ci >= boundaries || at < 0 || at >= n {
					continue
				}
				wide := slices.Clone(stream)
				wide[at] = 1<<32 + sim.Time(pick.Intn(1e12))
				label := fmt.Sprintf("%s, wide at %d", label, at)
				d, f := record(t, label, cp, int64(cp), wide)
				checkReads(t, label, d, f)
			}
		}
	}
}

// readBattery is the quantile battery stats.Summary reports.
var readBattery = []float64{0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1}

// checkReads holds every statistic of d to the flat recorder's, to the
// bit: MeanQuantiles with the whole quantile battery, two, one and no
// quantiles, and the count and standard deviation of the moments.
func checkReads(t *testing.T, label string, d *DelayRecorder, f *flatRecorder) {
	t.Helper()
	for _, ps := range [][]float64{readBattery, {0.5, 0.95}, {0.5}, {}} {
		mean, qs := d.MeanQuantiles(ps...)
		wantMean, wantQs := f.meanQuantiles(ps...)
		if !sameBits(mean, wantMean) || !slices.EqualFunc(qs, wantQs, sameBits) {
			t.Fatalf("%s: MeanQuantiles(%v) = %v %v, flat %v %v", label, ps, mean, qs, wantMean, wantQs)
		}
	}
	w, _ := d.moments()
	if want := stats.Summarize(f.samples); w.N() != want.N || w.N() > 0 && !sameBits(w.Std(), want.Std) {
		t.Fatalf("%s: N %d, std %v; flat %d, %v", label, w.N(), w.Std(), want.N, want.Std)
	}
}

// TestOrderedReadMatchesFlat: sorting the chunks where they lie and
// walking them in order reads what copying, sorting and walking one flat
// slice read, to the bit — at the chunk and cap boundaries, with the
// reservoir active, on streams full of duplicates (ties between runs) and
// already ascending ones (every run exhausted before the next starts), and
// again on a second read, when the chunks are already sorted.
func TestOrderedReadMatchesFlat(t *testing.T) {
	pick := sim.NewRand(5)
	streams := map[string]func(k int) sim.Time{
		"random":     func(int) sim.Time { return sim.Time(pick.Intn(1e9)) },
		"duplicates": func(int) sim.Time { return sim.Time(pick.Intn(7)) * sim.Millisecond },
		"ascending":  func(k int) sim.Time { return sim.Time(k) * sim.Microsecond },
		// All of 32 bits, so half the samples have the top bit set.
		"32-bit": func(int) sim.Time { return sim.Time(pick.Intn(1 << 32)) },
		// Zero, and negatives (64-bit slots from the first one).
		"zero and negative": func(int) sim.Time { return sim.Time(pick.Intn(5)-3) * sim.Millisecond },
		// Flow completion times: up to 100 s, mostly past 32 bits.
		"fct": func(int) sim.Time { return sim.Time(pick.Intn(100e9)) },
	}
	for _, cp := range []int{1, 2, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 2*chunkLen + 100} {
		for _, n := range []int{0, 1, 2, chunkLen - 1, chunkLen, chunkLen + 1, cp - 1, cp, 3 * cp} {
			for _, name := range slices.Sorted(maps.Keys(streams)) {
				stream := make([]sim.Time, max(n, 0))
				for k := range stream {
					stream[k] = streams[name](k)
				}
				label := fmt.Sprintf("%s, cap %d, %d adds", name, cp, n)
				d, f := record(t, label, cp, int64(cp), stream)
				checkReads(t, label, d, f)
				checkReads(t, label+", second read", d, f)
			}
		}
	}
}

// TestReleasedChunksAreNotObservable: a recorder built on chunks another
// one released reads only what it recorded itself, whatever the chunks
// held, in either width; a released recorder is empty, and releasing it
// again gives nothing back twice.
func TestReleasedChunksAreNotObservable(t *testing.T) {
	pick := sim.NewRand(9)
	old := NewDelayRecorder(0, sim.NewRand(1))
	for k := 0; k < 3*chunkLen+50; k++ {
		old.Add(sim.Time(pick.Intn(1e9)))
	}
	wideOld := NewDelayRecorder(0, sim.NewRand(1))
	for k := 0; k < 3*chunkLen+50; k++ {
		wideOld.Add(sim.Time(pick.Intn(100e9)))
	}
	for _, r := range []*DelayRecorder{old, wideOld} {
		r.MeanQuantiles(0.5)
		r.Release()
		r.Release()
		if mean, qs := r.MeanQuantiles(0.5); r.Len() != 0 || len(stored(r)) != 0 || r.widened || !math.IsNaN(mean) || !math.IsNaN(qs[0]) {
			t.Fatalf("a released recorder reads Len %d, mean %v, p50 %v", r.Len(), mean, qs[0])
		}
	}
	// Poison whatever the pools hold now (the chunks just released,
	// unless a pool dropped some), and a few fresh ones, with all-ones
	// words: the largest 32-bit delay, and -1 ns.
	var narrow []*[chunkLen]uint32
	var wide []*[chunkLen]sim.Time
	for i := 0; i < 8; i++ {
		nc := narrowPool.Get().(*[chunkLen]uint32)
		wc := widePool.Get().(*[chunkLen]sim.Time)
		for k := range chunkLen {
			nc[k], wc[k] = math.MaxUint32, -1
		}
		narrow, wide = append(narrow, nc), append(wide, wc)
	}
	for i := range narrow {
		narrowPool.Put(narrow[i])
		widePool.Put(wide[i])
	}
	streams := map[string]func(k int) sim.Time{
		"32-bit":         func(int) sim.Time { return sim.Time(pick.Intn(1e9)) },
		"64-bit":         func(int) sim.Time { return sim.Time(pick.Intn(100e9)) },
		"widens halfway": func(k int) sim.Time { return sim.Time(pick.Intn(1e9)) + sim.Time(k/(chunkLen+3))*5*sim.Second },
	}
	for _, name := range slices.Sorted(maps.Keys(streams)) {
		stream := make([]sim.Time, 2*chunkLen+7)
		for k := range stream {
			stream[k] = streams[name](k)
		}
		d, f := record(t, name+" on recycled chunks", 0, 2, stream)
		checkReads(t, name+" on recycled chunks", d, f)
		d.Release()
	}
	// A released recorder records again like a new one, narrow.
	for _, r := range []*DelayRecorder{old, wideOld} {
		r.Add(3 * sim.Millisecond)
		if mean, _ := r.MeanQuantiles(); r.Len() != 1 || r.widened || mean != 3 {
			t.Fatalf("after Release and one Add: Len %d, wide %v, mean %v", r.Len(), r.widened, mean)
		}
	}
}

// FuzzDelayRecorderMatchesFlat draws a cap and a stream and holds the
// recorder to the flat reference: the same samples stored, 64-bit slots
// exactly when a stored sample needs them, and every statistic equal to
// the bit on two reads. The stream is segments of (count/64, kind) byte
// pairs; the values come from seed.
func FuzzDelayRecorderMatchesFlat(f *testing.F) {
	f.Add(uint16(100), int64(1), []byte{2, 0, 1, 2, 2, 0})
	f.Add(uint16(chunkLen+1), int64(2), []byte{100, 1, 1, 3, 50, 4})
	f.Fuzz(func(t *testing.T, cp uint16, seed int64, segs []byte) {
		pick := sim.NewRand(seed)
		kinds := []func() sim.Time{
			func() sim.Time { return sim.Time(pick.Intn(200e6)) },                 // queueing delays
			func() sim.Time { return sim.Time(pick.Intn(1 << 32)) },               // all of 32 bits
			func() sim.Time { return sim.Time(pick.Intn(100e9)) },                 // completion times
			func() sim.Time { return sim.Time(pick.Intn(5)-3) * sim.Millisecond }, // zero and negative
			func() sim.Time { return sim.Time(pick.Intn(7)) * sim.Millisecond },   // ties
		}
		var stream []sim.Time
		for i := 0; i+1 < len(segs) && len(stream) < 1<<16; i += 2 {
			next := kinds[int(segs[i+1])%len(kinds)]
			for range 64 * int(segs[i]) {
				stream = append(stream, next())
			}
		}
		label := fmt.Sprintf("cap %d, %d adds", cp, len(stream))
		d, fl := record(t, label, int(cp), seed, stream)
		checkReads(t, label, d, fl)
		checkReads(t, label+", second read", d, fl)
	})
}

// TestAddAfterReadAtCapPanics: a read reorders storage, and the reservoir
// replaces by position, so recording on at the cap after a read would keep
// a different sample set than the flat recorder: it is refused.
func TestAddAfterReadAtCapPanics(t *testing.T) {
	d := NewDelayRecorder(100, sim.NewRand(1))
	for k := 0; k < 100; k++ {
		d.Add(sim.Time(100-k) * sim.Millisecond)
	}
	d.Add(sim.Millisecond) // at the cap, not yet read: the reservoir's business
	d.MeanQuantiles(0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("Add at the cap after a read did not panic")
		}
	}()
	d.Add(sim.Millisecond)
}

// TestAddAfterReadBelowCap: below the cap a read between Adds is
// invisible, since Add appends wherever the earlier samples now lie.
func TestAddAfterReadBelowCap(t *testing.T) {
	pick := sim.NewRand(11)
	d := NewDelayRecorder(3*chunkLen, sim.NewRand(1))
	f := &flatRecorder{cap: d.Cap, rng: sim.NewRand(1)}
	for _, n := range []int{chunkLen + 10, 5, chunkLen} {
		for k := 0; k < n; k++ {
			x := sim.Time(pick.Intn(1e9))
			d.Add(x)
			f.add(x)
		}
		checkReads(t, fmt.Sprintf("after %d more adds", n), d, f)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAddAllocsBelowCap: recording takes one chunk per chunkLen samples,
// plus the chunk table's own doublings, and allocates nothing per sample.
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
	// The recorder, 40 chunks (fewer when the pool has some), a table
	// that doubles 1 -> 64, and the pool's own per-P table, which it
	// rebuilds (two allocations) after each collection the run triggers.
	if allocs > chunks+16 {
		t.Fatalf("%v allocations for %d Adds, want <= %d", allocs, chunks*chunkLen, chunks+16)
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
