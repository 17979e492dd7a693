package stats

import (
	"math"
	"testing"
	"testing/quick"

	"nimbus/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if !almost(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v", w.Var())
	}
	if w.N() != len(xs) {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter out NaN/Inf quick-generated values.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		return almost(w.Mean(), mean, 1e-6*(1+math.Abs(mean)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.75, 40}, {0.1, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Fatalf("P%.2f = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	got := Percentiles(xs, 0, 0.25, 0.5, 0.75, 1)
	want := []float64{10, 20, 30, 40, 50}
	for i := range want {
		if !almost(got[i], want[i], 1e-9) {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// One sort, same answers as repeated Percentile calls.
	for i, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got[i] != Percentile(xs, p) {
			t.Fatalf("Percentiles(%v) = %v disagrees with Percentile %v", p, got[i], Percentile(xs, p))
		}
	}
	if xs[0] != 50 {
		t.Fatal("input mutated")
	}
	for _, v := range Percentiles(nil, 0.5, 0.9) {
		if !math.IsNaN(v) {
			t.Fatal("empty input should yield NaNs")
		}
	}
	sorted := []float64{1, 2, 3, 4}
	ps := PercentilesSorted(sorted, 0.5)
	if ps[0] != Percentile(sorted, 0.5) {
		t.Fatalf("PercentilesSorted = %v", ps[0])
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.P50 != 50 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !almost(s.P95, 95, 1e-9) {
		t.Fatalf("p95 = %v", s.P95)
	}
	if !almost(s.Mean, 50, 1e-9) {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(0)
	for i := 0; i < 50; i++ {
		e.Add(10)
	}
	if !almost(e.Value(), 10, 1e-6) {
		t.Fatalf("ewma = %v", e.Value())
	}
}

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := NewEWMA(0.1)
	e.Add(42)
	if e.Value() != 42 {
		t.Fatalf("first sample should initialize: %v", e.Value())
	}
}

func TestAlphaForCutoff(t *testing.T) {
	// Higher cutoff -> larger alpha (less smoothing).
	a1 := AlphaForCutoff(1, 0.01)
	a5 := AlphaForCutoff(5, 0.01)
	if !(a5 > a1 && a1 > 0 && a5 < 1) {
		t.Fatalf("alphas: %v %v", a1, a5)
	}
}

// EWMA low-pass property: a high-frequency square wave should be strongly
// attenuated relative to its input amplitude.
func TestEWMAAttenuatesHighFrequency(t *testing.T) {
	alpha := AlphaForCutoff(5, 0.01) // 5 Hz cutoff at 100 Hz sampling
	e := NewEWMA(alpha)
	// 25 Hz square wave, amplitude 1.
	var min, max float64 = 1, -1
	for i := 0; i < 1000; i++ {
		x := 1.0
		if (i/2)%2 == 1 {
			x = -1
		}
		v := e.Add(x)
		if i > 100 {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if (max-min)/2 > 0.5 {
		t.Fatalf("25 Hz amplitude not attenuated: %v", (max-min)/2)
	}
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(int64(10 * sim.Second))
	w.Add(int64(1*sim.Second), 5)
	w.Add(int64(2*sim.Second), 3)
	if w.Max() != 5 {
		t.Fatalf("max = %v", w.Max())
	}
	// The 5 expires at t=11s+.
	w.Add(int64(12*sim.Second), 1)
	if w.Max() != 3 && w.Max() != 1 {
		t.Fatalf("max after expiry = %v", w.Max())
	}
	w.Add(int64(13*sim.Second), 10)
	if w.Max() != 10 {
		t.Fatalf("max = %v", w.Max())
	}
}

func TestWindowedMinBasics(t *testing.T) {
	w := NewWindowedMin(100)
	if w.Min() != 0 {
		t.Fatal("new filter does not read 0")
	}
	w.Add(0, 5)
	w.Add(10, 7)
	w.Add(20, 3)
	if w.Min() != 3 {
		t.Fatalf("min = %v", w.Min())
	}
	w.Add(200, 9) // everything else expired
	if w.Min() != 9 {
		t.Fatalf("min after expiry = %v", w.Min())
	}
}

// Property: WindowedMax always returns the true max of the samples within
// the window.
func TestWindowedMaxProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		w := NewWindowedMax(1000)
		type kv struct {
			t int64
			v float64
		}
		var hist []kv
		for i, v := range clean {
			tm := int64(i * 100)
			w.Add(tm, v)
			hist = append(hist, kv{tm, v})
			// Brute-force max over the window [tm-1000, tm]; the filter
			// keeps the last sample even if expired, matching its
			// "latest estimate" semantics, so include it.
			want := math.Inf(-1)
			for _, h := range hist {
				if h.t >= tm-1000 {
					want = math.Max(want, h.v)
				}
			}
			if w.Max() < want-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 || r.Full() {
		t.Fatal("new ring state wrong")
	}
	for i := 1; i <= 3; i++ {
		r.Push(float64(i))
	}
	if r.Len() != 3 || r.Full() {
		t.Fatal("ring fill state wrong")
	}
	got := r.Snapshot(nil)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v", got)
		}
	}
	r.Push(4)
	r.Push(5) // evicts 1
	if !r.Full() || r.Len() != 4 {
		t.Fatal("full ring state wrong")
	}
	got = r.Snapshot(got)
	want = []float64{2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot after wrap = %v", got)
		}
	}
	if r.At(0) != 5 || r.At(3) != 2 {
		t.Fatalf("At: newest=%v oldest=%v", r.At(0), r.At(3))
	}
}

// Property: the running windowed sum tracks a direct summation of the
// window across fills, wraps, and long churn.
func TestRingSum(t *testing.T) {
	r := NewRing(5)
	if r.Sum() != 0 {
		t.Fatal("empty ring sum not 0")
	}
	direct := func() float64 {
		s := 0.0
		for _, v := range r.Snapshot(nil) {
			s += v
		}
		return s
	}
	for i := 1; i <= 137; i++ {
		r.Push(float64(i%17) - 8)
		d := direct()
		if math.Abs(r.Sum()-d) > 1e-9 {
			t.Fatalf("after %d pushes: Sum = %v, direct = %v", i, r.Sum(), d)
		}
	}
	if r.Len() != len(r.Snapshot(nil)) {
		t.Fatal("Len disagrees with the snapshot")
	}
}

// The windowed sum is recomputed every Cap pushes, so rounding cannot
// build up however long the run and however the sample scale moves: 1e7
// pushes alternating 1e12-scale and 1e-3-scale stretches. Two windows
// into a stretch — one wrap after the last sample of the other scale
// left — Sum agrees with a fresh summation to 1e-9; add/subtract
// updates alone leave the small stretches' sums buried under the large
// ones' rounding (absolute error ~1, against sums of ~0.1).
func TestRingSumDoesNotDrift(t *testing.T) {
	const capN, stretch, pushes = 100, 2500, 10_000_000
	r := NewRing(capN)
	x := uint64(1)
	for i := 0; i < pushes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := 1e-3 * (1 + float64(x>>40)/(1<<24))
		if (i/stretch)%2 == 0 {
			v *= 1e15
		}
		r.Push(v)
		if i%stretch < 2*capN || i%97 != 0 {
			continue
		}
		fresh := 0.0
		for _, s := range r.Snapshot(nil) {
			fresh += s
		}
		if math.Abs(r.Sum()-fresh) > 1e-9*fresh {
			t.Fatalf("after %d pushes: Sum = %v, fresh summation %v", i+1, r.Sum(), fresh)
		}
	}
}

func TestRingAtPanics(t *testing.T) {
	r := NewRing(2)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	r.At(1)
}

// Property: snapshot returns the last min(n, cap) pushed values in order.
func TestRingProperty(t *testing.T) {
	f := func(vals []float64, capRaw uint8) bool {
		capN := int(capRaw%16) + 1
		r := NewRing(capN)
		for _, v := range vals {
			r.Push(v)
		}
		snap := r.Snapshot(nil)
		n := len(vals)
		if n > capN {
			n = capN
		}
		if len(snap) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if snap[i] != vals[len(vals)-n+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
