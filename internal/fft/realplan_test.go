package fft

import (
	"encoding/binary"
	"math"
	"testing"

	"nimbus/internal/sim"
)

// realPlanTol is the documented equivalence bound between the packed
// real-input path and the full complex path: the two reach each output
// bin through differently-ordered floating-point operations, so the
// magnitudes agree to rounding error, not bit-for-bit.
const realPlanTol = 1e-9

// specClose compares two spectra bin by bin within realPlanTol relative
// to the spectrum's peak (tiny bins near zero carry absolute rounding
// noise from the mean removal, so a pure relative bound would be unfair).
func specClose(t *testing.T, got, want Spectrum, label string) {
	t.Helper()
	if len(got.Mag) != len(want.Mag) || got.Resolution != want.Resolution {
		t.Fatalf("%s: shape mismatch: got (%d,%v) want (%d,%v)",
			label, len(got.Mag), got.Resolution, len(want.Mag), want.Resolution)
	}
	ref := 0.0
	for _, m := range want.Mag {
		if m > ref {
			ref = m
		}
	}
	if ref == 0 {
		ref = 1
	}
	for k := range want.Mag {
		if d := math.Abs(got.Mag[k] - want.Mag[k]); d > realPlanTol*ref {
			t.Fatalf("%s bin %d: got %v want %v (|diff| %g > %g)",
				label, k, got.Mag[k], want.Mag[k], d, realPlanTol*ref)
		}
	}
}

// The packed real path must reproduce the complex path's spectrum within
// the documented tolerance across sizes, including odd counts, short
// windows that pad to the plan size, and the fallback path for counts
// that pad elsewhere.
func TestRealPlanMatchesPlanAcrossSizes(t *testing.T) {
	for _, n := range []int{2, 3, 8, 100, 256, 257, 300, 500, 512, 1024} {
		plan := NewPlan(n, 100)
		rplan := NewRealPlan(n, 100)
		if plan.size != rplan.size {
			t.Fatalf("n=%d: size mismatch: Plan %d RealPlan %d", n, plan.size, rplan.size)
		}
		samples := planSignal(n)
		want := plan.AnalyzeInto(Spectrum{}, samples)
		got := rplan.AnalyzeInto(Spectrum{}, samples)
		specClose(t, got, want, "sized")
		// Shorter windows: same-pad counts use the packed path, others
		// fall back to Analyze exactly like Plan does.
		for _, m := range []int{1, n / 2, n - 1} {
			if m < 1 || m == n {
				continue
			}
			sub := samples[:m]
			specClose(t, rplan.AnalyzeInto(Spectrum{}, sub), plan.AnalyzeInto(Spectrum{}, sub), "short")
		}
	}
}

// Random-window equivalence: seeded noise windows, mean returned by both
// paths bit-identical (same in-order summation), spectra within tolerance.
func TestRealPlanRandomWindows(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		n := 2 + rng.Intn(1000)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.Normal(48e6, 12e6)
		}
		plan := NewPlan(n, 100)
		rplan := NewRealPlan(n, 100)
		want, wantMean := plan.AnalyzeMeanInto(Spectrum{}, samples)
		got, gotMean := rplan.AnalyzeMeanInto(Spectrum{}, samples)
		if gotMean != wantMean {
			t.Fatalf("seed=%d n=%d: mean mismatch: got %v want %v", seed, n, gotMean, wantMean)
		}
		specClose(t, got, want, "random")
	}
}

func TestRealPlanEmpty(t *testing.T) {
	spec := NewRealPlan(500, 100).AnalyzeInto(Spectrum{}, nil)
	if len(spec.Mag) != 0 {
		t.Fatal("expected empty spectrum for empty input")
	}
}

// Steady-state AnalyzeInto on the packed path must not allocate.
func TestRealPlanAnalyzeIntoAllocFree(t *testing.T) {
	rplan := NewRealPlan(500, 100)
	samples := planSignal(500)
	dst := rplan.AnalyzeInto(Spectrum{}, samples) // warm the dst buffer
	allocs := testing.AllocsPerRun(100, func() {
		dst = rplan.AnalyzeInto(dst, samples)
	})
	if allocs > 0 {
		t.Fatalf("AnalyzeInto allocates %.2f/op in steady state, want 0", allocs)
	}
	if dst.Mag[dst.BinFor(5)] == 0 {
		t.Fatal("no signal at 5 Hz")
	}
}

// FuzzRealPlanEquivalence feeds arbitrary byte strings as real windows
// (8 bytes per sample, clamped to finite values) through both the packed
// and complex paths and requires tolerance-level agreement.
func FuzzRealPlanEquivalence(f *testing.F) {
	seed := make([]byte, 64*8)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(float64(i)*1e6))
	}
	f.Add(seed)
	f.Add(seed[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n < 2 {
			return
		}
		if n > 4096 {
			n = 4096
		}
		samples := make([]float64, n)
		for i := range samples {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = float64(i)
			}
			samples[i] = v
		}
		plan := NewPlan(n, 100)
		rplan := NewRealPlan(n, 100)
		want := plan.AnalyzeInto(Spectrum{}, samples)
		got := rplan.AnalyzeInto(Spectrum{}, samples)
		specClose(t, got, want, "fuzz")
	})
}

// BenchmarkRealPlanAnalyze mirrors BenchmarkPlanAnalyze on the packed
// path: a 500-sample window through a reusable RealPlan into a reused
// spectrum. Compare ns/op against BenchmarkPlanAnalyze for the rFFT win.
func BenchmarkRealPlanAnalyze(b *testing.B) {
	rplan := NewRealPlan(500, 100)
	samples := planSignal(500)
	var dst Spectrum
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = rplan.AnalyzeInto(dst, samples)
		if dst.Mag[dst.BinFor(5)] == 0 {
			b.Fatal("no signal")
		}
	}
}
