package fft

import (
	"math"
	"math/cmplx"
)

// RealPlan is the packed real-input counterpart of Plan: it computes the
// same one-sided magnitude spectrum from a real length-N window using one
// complex FFT of length N/2 plus an O(N) unpack pass, roughly halving the
// butterfly work. The trick is standard: pack adjacent real samples into
// complex points z[i] = y[2i] + i·y[2i+1], transform with the half-size
// plan (reusing Plan's bit-reversal and twiddle machinery), then split the
// result into the even/odd sub-spectra and recombine with one extra
// twiddle per output bin:
//
//	E[k] = (Z[k] + conj(Z[N/2-k])) / 2
//	O[k] = (Z[k] - conj(Z[N/2-k])) · (-i/2)
//	X[k] = E[k] + W^k · O[k],  W = e^(-2πi/N),  k = 0..N/2
//
// The magnitude fold (mean removal, zero padding, 1/n scaling, ×2 off the
// DC and Nyquist bins) matches Plan.AnalyzeMeanInto exactly, but the
// floating-point operations reach each X[k] in a different order than the
// full-size transform, so magnitudes agree only to rounding error (~1e-12
// relative), not bit-for-bit — which is why the detector keeps the packed
// path behind an explicit flag.
//
// Like Plan, a RealPlan owns scratch buffers and is not safe for
// concurrent use.
type RealPlan struct {
	size     int          // real FFT length: NextPow2 of the nominal sample count
	sampleHz float64      // sampling frequency of the input series
	half     *Plan        // complex plan of length size/2 for the packed points
	utw      []complex128 // unpack twiddles W^k, k = 0..size/2
	buf      []complex128 // scratch packed input/output, length size/2
}

// NewRealPlan returns a packed-real plan for analyzing windows of n real
// samples taken at sampleHz. The FFT length is NextPow2(n) (minimum 2, so
// the half-size complex plan exists); like Plan.AnalyzeInto, sample counts
// that pad to a different length fall back to the generic Analyze path.
func NewRealPlan(n int, sampleHz float64) *RealPlan {
	if n < 2 {
		n = 2
	}
	size := NextPow2(n)
	p := &RealPlan{
		size:     size,
		sampleHz: sampleHz,
		half:     NewPlan(size/2, sampleHz),
		utw:      make([]complex128, size/2+1),
		buf:      make([]complex128, size/2),
	}
	// Unpack twiddles, built with the same multiplicative recurrence the
	// stage tables use so repeated runs are deterministic.
	ang := -2 * math.Pi / float64(size)
	wl := cmplx.Rect(1, ang)
	w := complex(1, 0)
	for k := range p.utw {
		p.utw[k] = w
		w *= wl
	}
	return p
}

// AnalyzeInto computes the one-sided magnitude spectrum of samples with
// the same contract as Plan.AnalyzeInto — mean removal, zero padding to
// the plan size, 1/n scaling with the ×2 one-sided fold, magnitudes
// written into dst's buffer (grown only if too small) — via the packed
// half-size transform. Steady-state calls allocate nothing.
func (p *RealPlan) AnalyzeInto(dst Spectrum, samples []float64) Spectrum {
	spec, _ := p.AnalyzeMeanInto(dst, samples)
	return spec
}

// AnalyzeMeanInto is AnalyzeInto returning also the window mean the DC
// removal computed, mirroring Plan.AnalyzeMeanInto.
func (p *RealPlan) AnalyzeMeanInto(dst Spectrum, samples []float64) (Spectrum, float64) {
	n := len(samples)
	if n == 0 {
		return Spectrum{}, 0
	}
	mean := 0.0
	for _, v := range samples {
		mean += v
	}
	mean /= float64(n)
	if NextPow2(n) != p.size {
		return Analyze(samples, p.sampleHz), mean
	}
	// Pack adjacent mean-removed samples into complex points; the zero
	// padding beyond n packs to complex zeros.
	buf := p.buf
	half := p.size / 2
	i := 0
	for ; 2*i+1 < n; i++ {
		buf[i] = complex(samples[2*i]-mean, samples[2*i+1]-mean)
	}
	if 2*i < n { // odd sample count: the last sample pairs with padding
		buf[i] = complex(samples[2*i]-mean, 0)
		i++
	}
	for ; i < half; i++ {
		buf[i] = 0
	}
	p.half.Transform(buf)
	bins := half + 1
	mag := dst.Mag
	if cap(mag) < bins {
		mag = make([]float64, bins)
	}
	mag = mag[:bins]
	scale := 1 / float64(n) // normalize by true sample count, not padded size
	for k := 0; k < bins; k++ {
		// Z[k mod N/2] and conj(Z[(N/2-k) mod N/2]); both indices stay in
		// [0, N/2) because Z is periodic with period N/2.
		zk := buf[k&(half-1)]
		zc := cmplx.Conj(buf[(half-k)&(half-1)])
		even := (zk + zc) * 0.5
		odd := (zk - zc) * complex(0, -0.5)
		m := cmplx.Abs(even+p.utw[k]*odd) * scale
		if k != 0 && k != half {
			m *= 2
		}
		mag[k] = m
	}
	return Spectrum{
		Mag:        mag,
		Resolution: p.sampleHz / float64(p.size),
		N:          p.size,
	}, mean
}
