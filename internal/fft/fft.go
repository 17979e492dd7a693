// Package fft implements the discrete Fourier transforms the elasticity
// detector needs: an iterative radix-2 complex FFT, a real-input helper
// that returns one-sided magnitudes, and a Goertzel single-bin DFT used by
// Nimbus watcher flows that only need the response at two known
// frequencies. Only the standard library is used.
package fft

import (
	"math"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place decimation-in-time radix-2 FFT of x. The
// length of x must be a power of two; FFT panics otherwise. The transform
// is unnormalized (no 1/n factor).
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// Spectrum holds a one-sided magnitude spectrum of a real signal.
type Spectrum struct {
	// Mag[k] is the magnitude at frequency k*Resolution Hz, for
	// k = 0..N/2. Magnitudes are |X_k|/N scaled by 2 for k in (0, N/2)
	// so a unit-amplitude sinusoid at a bin frequency has magnitude ~1.
	Mag []float64
	// Resolution is the bin width in Hz.
	Resolution float64
	// N is the FFT length used.
	N int
}

// Analyze computes the one-sided magnitude spectrum of the real signal
// samples taken at sampleHz. The mean is removed first (the detector cares
// about fluctuations, not the DC rate), and the signal is zero-padded to
// the next power of two. It is a compatibility wrapper over a one-shot
// Plan; hot paths that analyze the same window size repeatedly should hold
// a Plan and call AnalyzeInto to skip the per-call table building and
// allocations.
func Analyze(samples []float64, sampleHz float64) Spectrum {
	if len(samples) == 0 {
		return Spectrum{}
	}
	return NewPlan(len(samples), sampleHz).AnalyzeInto(Spectrum{}, samples)
}

// BinFor returns the index of the bin closest to freq Hz.
func (s Spectrum) BinFor(freq float64) int {
	if s.Resolution == 0 {
		return 0
	}
	k := int(math.Round(freq / s.Resolution))
	if k < 0 {
		k = 0
	}
	if k >= len(s.Mag) {
		k = len(s.Mag) - 1
	}
	return k
}

// PeakAround returns the maximum magnitude among bins within +-width Hz of
// freq. The detector uses a small width to tolerate off-bin pulse
// frequencies.
func (s Spectrum) PeakAround(freq, width float64) float64 {
	if len(s.Mag) == 0 || s.Resolution == 0 {
		return 0
	}
	lo := s.BinFor(freq - width)
	hi := s.BinFor(freq + width)
	max := 0.0
	for k := lo; k <= hi; k++ {
		if s.Mag[k] > max {
			max = s.Mag[k]
		}
	}
	return max
}

// Goertzel computes the magnitude of the DFT of samples at the single
// frequency freq Hz (samples taken at sampleHz), normalized like Analyze
// (mean removed, scaled by 2/N). It matches the FFT magnitude at bin
// frequencies and is much cheaper when only one or two bins are needed.
func Goertzel(samples []float64, sampleHz, freq float64) float64 {
	n := len(samples)
	if n == 0 || sampleHz <= 0 {
		return 0
	}
	mean := 0.0
	for _, v := range samples {
		mean += v
	}
	mean /= float64(n)
	w := 2 * math.Pi * freq / sampleHz
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range samples {
		s0 = v - mean + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return 2 * math.Sqrt(power) / float64(n)
}
