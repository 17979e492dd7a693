package fft

import (
	"math"
	"testing"

	"nimbus/internal/sim"
)

func planSignal(n int) []float64 {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01) + 1e6*math.Sin(2*math.Pi*11*float64(i)*0.01)
	}
	return samples
}

// The plan's table-driven transform must be bit-identical to the inline
// FFT — same permutation, same twiddle recurrence, same butterflies.
func TestPlanTransformMatchesFFTBitwise(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512, 1024} {
		rng := sim.NewRand(int64(n))
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
			b[i] = a[i]
		}
		FFT(a)
		NewPlan(n, 100).Transform(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d bin %d: FFT=%v Plan=%v (not bit-identical)", n, i, a[i], b[i])
			}
		}
	}
}

// AnalyzeInto must reproduce Analyze exactly, including for short warmup
// windows (both those that pad to the plan size and those that fall back
// to the generic path) and non-power-of-two counts.
func TestPlanAnalyzeIntoMatchesAnalyzeBitwise(t *testing.T) {
	plan := NewPlan(500, 100)
	var dst Spectrum
	for _, n := range []int{1, 7, 100, 256, 257, 300, 500, 512} {
		samples := planSignal(n)
		want := Analyze(samples, 100)
		dst = plan.AnalyzeInto(dst, samples)
		if len(dst.Mag) != len(want.Mag) || dst.Resolution != want.Resolution {
			t.Fatalf("n=%d: shape mismatch: got (%d,%v) want (%d,%v)",
				n, len(dst.Mag), dst.Resolution, len(want.Mag), want.Resolution)
		}
		for k := range want.Mag {
			if dst.Mag[k] != want.Mag[k] {
				t.Fatalf("n=%d bin %d: got %v want %v (not bit-identical)", n, k, dst.Mag[k], want.Mag[k])
			}
		}
	}
}

func TestPlanAnalyzeIntoEmpty(t *testing.T) {
	plan := NewPlan(500, 100)
	spec := plan.AnalyzeInto(Spectrum{}, nil)
	if len(spec.Mag) != 0 {
		t.Fatal("expected empty spectrum for empty input")
	}
}

// Steady-state AnalyzeInto must not allocate: the transform runs in the
// plan's scratch and the magnitudes land in the caller's reused buffer.
func TestPlanAnalyzeIntoAllocFree(t *testing.T) {
	plan := NewPlan(500, 100)
	samples := planSignal(500)
	dst := plan.AnalyzeInto(Spectrum{}, samples) // warm the dst buffer
	allocs := testing.AllocsPerRun(100, func() {
		dst = plan.AnalyzeInto(dst, samples)
	})
	if allocs > 0 {
		t.Fatalf("AnalyzeInto allocates %.2f/op in steady state, want 0", allocs)
	}
	if dst.Mag[dst.BinFor(5)] == 0 {
		t.Fatal("no signal at 5 Hz")
	}
}

// BenchmarkPlanAnalyze is the detector-shaped hot path: a 500-sample
// window analyzed through a reusable plan into a reused spectrum.
func BenchmarkPlanAnalyze(b *testing.B) {
	plan := NewPlan(500, 100)
	samples := planSignal(500)
	var dst Spectrum
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = plan.AnalyzeInto(dst, samples)
		if dst.Mag[dst.BinFor(5)] == 0 {
			b.Fatal("no signal")
		}
	}
}
