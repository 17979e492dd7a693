package fft

import (
	"math"
	"math/cmplx"
)

// Plan precomputes everything a fixed-size real-input spectrum analysis
// needs — the bit-reversal permutation and the per-stage twiddle factors —
// so the per-call work is just the butterflies and the magnitude fold.
// The tables are built with the same multiplicative recurrence FFT uses
// inline (w[0] = 1, w[k] = w[k-1] * wl), so every butterfly multiplies
// bit-identical values and a Plan-based transform reproduces FFT and
// Analyze exactly, bit for bit.
//
// A Plan owns scratch buffers and is not safe for concurrent use; give
// each goroutine (each simulation) its own.
type Plan struct {
	size     int     // FFT length: NextPow2 of the nominal sample count
	sampleHz float64 // sampling frequency of the input series
	rev      []int32 // bit-reversal permutation for size
	tw       [][]complex128
	buf      []complex128 // scratch transform input/output
}

// NewPlan returns a plan for analyzing windows of n real samples taken at
// sampleHz. The FFT length is NextPow2(n); AnalyzeInto accepts any sample
// count that pads to the same length (shorter warmup windows that pad to a
// smaller transform fall back to the generic Analyze path).
func NewPlan(n int, sampleHz float64) *Plan {
	if n < 1 {
		n = 1
	}
	size := NextPow2(n)
	p := &Plan{
		size:     size,
		sampleHz: sampleHz,
		rev:      make([]int32, size),
		buf:      make([]complex128, size),
	}
	// The permutation is the exact j-sequence FFT's swap loop walks.
	for i, j := 1, 0; i < size; i++ {
		bit := size >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	// One twiddle table per butterfly stage, built with the same
	// recurrence the inline FFT uses per block (it resets w at each block
	// start, so the k-th value is identical across blocks).
	for length := 2; length <= size; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		half := length / 2
		ws := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			ws[k] = w
			w *= wl
		}
		p.tw = append(p.tw, ws)
	}
	return p
}

// Transform computes the in-place DIT radix-2 FFT of x using the
// precomputed tables. len(x) must equal Size; the output is bit-identical
// to FFT(x).
func (p *Plan) Transform(x []complex128) {
	if len(x) != p.size {
		panic("fft: Transform length does not match plan size")
	}
	for i := 1; i < p.size; i++ {
		j := int(p.rev[i])
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for li, ws := range p.tw {
		length := 2 << li
		half := length >> 1
		for start := 0; start < p.size; start += length {
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * ws[k]
				x[start+k] = u + v
				x[start+k+half] = u - v
			}
		}
	}
}

// AnalyzeInto computes the one-sided magnitude spectrum of samples exactly
// like Analyze (mean removal, zero-padding to the plan size, 2/N scaling),
// but writes the magnitudes into dst's buffer (grown only if too small)
// and runs the transform in the plan's scratch space, so steady-state
// calls allocate nothing. It returns the filled spectrum; dst's previous
// contents are overwritten. Sample counts that pad to a different FFT
// length than the plan's (short warmup windows) take the allocating
// Analyze path instead.
func (p *Plan) AnalyzeInto(dst Spectrum, samples []float64) Spectrum {
	spec, _ := p.AnalyzeMeanInto(dst, samples)
	return spec
}

// AnalyzeMeanInto is AnalyzeInto returning also the window mean the
// DC removal computed (a plain in-order summation over samples), so
// callers that need both — the detector's η guard — avoid a second pass.
func (p *Plan) AnalyzeMeanInto(dst Spectrum, samples []float64) (Spectrum, float64) {
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
	buf := p.buf
	for i, v := range samples {
		buf[i] = complex(v-mean, 0)
	}
	for i := n; i < p.size; i++ {
		buf[i] = 0
	}
	p.Transform(buf)
	half := p.size/2 + 1
	mag := dst.Mag
	if cap(mag) < half {
		mag = make([]float64, half)
	}
	mag = mag[:half]
	scale := 1 / float64(n) // normalize by true sample count, not padded size
	for k := 0; k < half; k++ {
		m := cmplx.Abs(buf[k]) * scale
		if k != 0 && k != p.size/2 {
			m *= 2
		}
		mag[k] = m
	}
	return Spectrum{
		Mag:        mag,
		Resolution: p.sampleHz / float64(p.size),
	}, mean
}
