package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"nimbus/internal/sim"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 500: 512, 512: 512, 513: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,1,1,1] is [4,0,0,0].
	x := []complex128{1, 1, 1, 1}
	FFT(x)
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Fatalf("DC = %v", x[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(x[k]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", k, x[k])
		}
	}
	// FFT of a unit impulse is all ones.
	y := []complex128{1, 0, 0, 0, 0, 0, 0, 0}
	FFT(y)
	for k := range y {
		if cmplx.Abs(y[k]-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", k, y[k])
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 6))
}

// Parseval's theorem: sum |x|^2 == (1/N) sum |X|^2.
func TestFFTParseval(t *testing.T) {
	rng := sim.NewRand(2)
	x := make([]complex128, 128)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-9*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

// Linearity property via quick.Check on small random vectors.
func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRand(seed)
		n := 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.Normal(0, 1), 0)
			b[i] = complex(rng.Normal(0, 1), 0)
			sum[i] = a[i] + b[i]
		}
		FFT(a)
		FFT(b)
		FFT(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeSinusoid(t *testing.T) {
	// A 5 Hz unit sinusoid sampled at 100 Hz for 512 samples (bin 25.6,
	// so energy splits across neighbouring bins; peak within 1 bin of
	// 5 Hz must still be dominant).
	sampleHz := 100.0
	n := 512
	samples := make([]float64, n)
	for i := range samples {
		tsec := float64(i) / sampleHz
		samples[i] = 10 + math.Sin(2*math.Pi*5*tsec) // DC offset removed by Analyze
	}
	spec := Analyze(samples, sampleHz)
	peak := spec.PeakAround(5, 2*spec.Resolution)
	if peak < 0.5 {
		t.Fatalf("5 Hz peak = %v, want >= 0.5 for unit sinusoid", peak)
	}
	// Energy away from 5 Hz should be much smaller.
	far := spec.PeakAround(20, spec.Resolution)
	if far > peak/4 {
		t.Fatalf("20 Hz magnitude %v too large vs peak %v", far, peak)
	}
	// DC must be ~zero (mean removed).
	if spec.Mag[0] > 1e-9 {
		t.Fatalf("DC = %v", spec.Mag[0])
	}
}

func TestAnalyzeBinFrequency(t *testing.T) {
	// Exact-bin sinusoid: 8 Hz at 128 samples/s over 128 samples -> bin 8.
	n := 128
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = 3 * math.Cos(2*math.Pi*8*float64(i)/128)
	}
	spec := Analyze(samples, 128)
	if got := spec.Mag[spec.BinFor(8)]; math.Abs(got-3) > 1e-9 {
		t.Fatalf("amplitude at 8 Hz = %v, want 3", got)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	spec := Analyze(nil, 100)
	if len(spec.Mag) != 0 {
		t.Fatal("expected empty spectrum")
	}
	if spec.PeakAround(5, 1) != 0 {
		t.Fatal("empty spectrum lookups should be 0")
	}
}

func TestGoertzelMatchesFFT(t *testing.T) {
	rng := sim.NewRand(3)
	n := 128
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = math.Sin(2*math.Pi*8*float64(i)/128) + 0.2*rng.Normal(0, 1)
	}
	spec := Analyze(samples, 128)
	for _, f := range []float64{4, 8, 16} {
		g := Goertzel(samples, 128, f)
		a := spec.Mag[spec.BinFor(f)]
		if math.Abs(g-a) > 0.05*(a+0.01) {
			t.Fatalf("Goertzel(%v Hz) = %v, FFT = %v", f, g, a)
		}
	}
}

func TestGoertzelEdgeCases(t *testing.T) {
	if Goertzel(nil, 100, 5) != 0 {
		t.Fatal("empty input")
	}
	if Goertzel([]float64{1, 2}, 0, 5) != 0 {
		t.Fatal("zero sample rate")
	}
}

func TestSpectrumBinFor(t *testing.T) {
	spec := Spectrum{Mag: make([]float64, 257), Resolution: 100.0 / 512}
	if b := spec.BinFor(5); b != 26 { // 5 / 0.1953 = 25.6 -> 26
		t.Fatalf("BinFor(5) = %d", b)
	}
	if b := spec.BinFor(-3); b != 0 {
		t.Fatalf("BinFor(-3) = %d", b)
	}
	if b := spec.BinFor(1e9); b != 256 {
		t.Fatalf("BinFor(huge) = %d", b)
	}
}
