package core

import (
	"math"
	"math/cmplx"
)

// band is the set of bins one η read touches, for a spectrum of nbins
// bins res Hz apart: the numerator is the peak over [numLo, numHi] (within
// one bin of fp), the denominator the peak over [denLo, denHi] (the open
// band (fp, 2fp) less its guard bins) without [exLo, exHi] (within 1.5
// bins of the excluded frequency). Any of the ranges may be empty
// (lo > hi).
type band struct {
	fp, exclude  float64
	numLo, numHi int
	denLo, denHi int
	exLo, exHi   int
}

// newBand finds the ranges by testing every bin against the inequalities
// of Eq. 3 as the detector has always evaluated them, so a bin exactly on
// an edge falls on the same side whichever path reads it.
func newBand(nbins int, res, fp, exclude float64) band {
	// fft.Spectrum.BinFor: the nearest bin, clamped to the spectrum.
	binFor := func(f float64) int {
		return min(max(int(math.Round(f/res)), 0), nbins-1)
	}
	b := band{
		fp: fp, exclude: exclude,
		numLo: binFor(fp - res), numHi: binFor(fp + res),
		denLo: nbins, denHi: -1, exLo: nbins, exHi: -1,
	}
	for k := 0; k < nbins; k++ {
		f := float64(k) * res
		if f <= fp+2*res || f >= 2*fp-res {
			continue
		}
		b.denLo, b.denHi = min(b.denLo, k), k
		if exclude > 0 && f > exclude-1.5*res && f < exclude+1.5*res {
			b.exLo, b.exHi = min(b.exLo, k), k
		}
	}
	return b
}

// span returns the smallest bin range covering the numerator and the
// denominator.
func (b *band) span() (lo, hi int) {
	if b.denLo > b.denHi {
		return b.numLo, b.numHi
	}
	return min(b.numLo, b.denLo), max(b.numHi, b.denHi)
}

// peaks returns the numerator and denominator peaks of v, where v[0]
// belongs to bin first. v holds magnitudes or squared magnitudes; the
// peaks come back in kind.
func (b *band) peaks(v []float64, first int) (num, den float64) {
	num = peak(v, b.numLo-first, b.numHi-first)
	den = math.Max(
		peak(v, b.denLo-first, min(b.denHi, b.exLo-1)-first),
		peak(v, max(b.denLo, b.exHi+1)-first, b.denHi-first))
	return num, den
}

// peak returns the largest of v[lo..hi], 0 for an empty range.
func peak(v []float64, lo, hi int) float64 {
	m := 0.0
	for k := lo; k <= hi; k++ {
		if v[k] > m {
			m = v[k]
		}
	}
	return m
}

// bandTracker is a sliding DFT over a contiguous range of bins of the
// detector's window x_0..x_{n-1} (oldest first), zero-padded to size.
// With W = e^{-2πi/size} it holds, per tracked bin k,
//
//	S_k = Σ_i x_i·W^{ki}
//
// which one new sample moves to (S_k − x_out)·W^{-k} + x_in·W^{k(n−1)}.
// The mean is not removed from the samples; a read subtracts
// mean·G_k, G_k = Σ_{i<n} W^{ki}, which gives the transform of the
// mean-removed window — what fft.Plan.AnalyzeMeanInto computes — from the
// ring's running sum.
//
// The range is the union of what readers have asked for and grows by
// recomputing S_k from the ring. Each slide rounds, so the sums are also
// recomputed once per window; in between, the error is that of at most n
// slides, about n·ε relative to the largest S_k the window has seen.
//
// That error is absolute, so it would be all there is to read in a window
// whose mean-removed transform is exactly zero: a constant one, which ẑ
// clamped at 0 or at µ, or a flow with nothing acknowledged for a window,
// produces. The tracker therefore counts the places where neighbouring
// samples differ and reads a window with none as zero.
type bandTracker struct {
	n, size int          // window length and the power of two it pads to
	tw      []complex128 // W^m for m in [0, size), built when tracking starts

	lo, hi int        // tracked bins, when there are any
	bins   []binState // bins[k-lo] is bin k; empty when nothing is tracked
	// power[k-lo] is |S_k − mean·G_k|² as of detector generation powerGen
	// (0: not since the sums were last recomputed; a full window's
	// generation is never 0): one pass per tick however many reads share it.
	power    []float64
	powerGen uint64

	synced  bool // the sums match the ring's current window
	slides  int  // advances since the sums were last computed exactly
	idle    int  // advances since the last read
	changes int  // i with x_i != x_{i+1} in the window
}

// binState is one tracked bin: the running sum and its three constants,
// as float pairs so the slide is plain arithmetic on one cache line.
type binState struct {
	sRe, sIm     float64 // S_k
	rotRe, rotIm float64 // W^{-k}
	inRe, inIm   float64 // W^{k(n−1)}
	dcRe, dcIm   float64 // G_k
}

// advance moves the sums one sample forward: out, the oldest sample,
// leaves the window and makes next the oldest; in enters it after last.
// It stops tracking when nobody has read for half a window —
// an exact recompute costs about that many slides, so past that point
// sliding on for a reader who may never return is the dearer choice —
// and hands over to recompute when a window's worth of slides has
// accumulated.
func (t *bandTracker) advance(out, next, last, in float64) {
	t.idle++
	t.slides++
	if t.idle > t.n/2 {
		*t = bandTracker{n: t.n, size: t.size, tw: t.tw, bins: t.bins[:0], power: t.power[:0]}
		return
	}
	if t.slides >= t.n {
		t.synced = false
		return
	}
	if out != next {
		t.changes--
	}
	if last != in {
		t.changes++
	}
	for i := range t.bins {
		b := &t.bins[i]
		re, im := b.sRe-out, b.sIm
		b.sRe = re*b.rotRe - im*b.rotIm + in*b.inRe
		b.sIm = re*b.rotIm + im*b.rotRe + in*b.inIm
	}
}

// track makes [lo, hi] the tracked range and fills in the bins'
// constants; the sums are left to recompute.
func (t *bandTracker) track(lo, hi int) {
	if t.tw == nil {
		t.tw = make([]complex128, t.size)
		for m := range t.tw {
			t.tw[m] = cmplx.Rect(1, -2*math.Pi*float64(m)/float64(t.size))
		}
	}
	t.lo, t.hi = lo, hi
	t.bins = append(t.bins[:0], make([]binState, hi-lo+1)...)
	t.power = append(t.power[:0], make([]float64, hi-lo+1)...)
	mask := t.size - 1
	for i := range t.bins {
		k := lo + i
		var g complex128
		for j, m := 0, 0; j < t.n; j, m = j+1, (m+k)&mask {
			g += t.tw[m]
		}
		rot, in := t.tw[(t.size-k)&mask], t.tw[(k*(t.n-1))&mask]
		t.bins[i] = binState{
			rotRe: real(rot), rotIm: imag(rot),
			inRe: real(in), inIm: imag(in),
			dcRe: real(g), dcIm: imag(g),
		}
	}
	t.synced = false
}

// recompute sets every tracked sum from the window (oldest first) by
// direct summation.
func (t *bandTracker) recompute(window []float64) {
	mask := t.size - 1
	for i := range t.bins {
		k := t.lo + i
		var re, im float64
		m := 0
		for _, x := range window {
			w := t.tw[m]
			re += x * real(w)
			im += x * imag(w)
			m = (m + k) & mask
		}
		t.bins[i].sRe, t.bins[i].sIm = re, im
	}
	t.changes = 0
	for i := 1; i < len(window); i++ {
		if window[i] != window[i-1] {
			t.changes++
		}
	}
	t.slides = 0
	t.synced = true
	t.powerGen = 0
}

// bandFor returns the bins an η read at (fp, exclude) touches on the full
// window's spectrum, from a small cache: a flow asks about the same two
// or three pairs every tick.
func (d *Detector) bandFor(fp, exclude float64) *band {
	for i := range d.bands {
		if b := &d.bands[i]; b.fp == fp && b.exclude == exclude {
			return b
		}
	}
	size := d.band.size
	if len(d.bands) == 4 {
		d.bands = d.bands[:0] // a caller sweeping fp: start over rather than grow
	}
	d.bands = append(d.bands, newBand(size/2+1, d.SampleHz()/float64(size), fp, exclude))
	return &d.bands[len(d.bands)-1]
}

// bandPower returns the squared magnitudes of the mean-removed window's
// transform at the tracked bins (index 0 is bin first), after making sure
// [lo, hi] is tracked and the sums are current. ok is false when the band
// path does not apply — the window is not full yet, or the range reaches
// bin 0 or Nyquist, whose scaling differs — and the caller must use the
// full transform.
func (d *Detector) bandPower(lo, hi int) (power []float64, first int, ok bool) {
	t := &d.band
	if !d.Ready() || lo < 1 || hi >= t.size/2 {
		return nil, 0, false
	}
	t.idle = 0
	if len(t.bins) == 0 {
		t.track(lo, hi)
	} else if lo < t.lo || hi > t.hi {
		t.track(min(lo, t.lo), max(hi, t.hi))
	}
	if !t.synced {
		d.buf = d.ring.Snapshot(d.buf)
		t.recompute(d.buf)
	}
	if t.powerGen != d.gen {
		mean := d.ring.Sum() / float64(t.n)
		for i := range t.bins {
			b := &t.bins[i]
			re, im := b.sRe-mean*b.dcRe, b.sIm-mean*b.dcIm
			t.power[i] = re*re + im*im
		}
		if t.changes == 0 {
			clear(t.power)
		}
		t.powerGen = d.gen
	}
	return t.power, t.lo, true
}

// magnitude scales a squared magnitude like fft.Spectrum.Mag: |X_k|·2/n.
func (d *Detector) magnitude(power float64) float64 {
	m := math.Sqrt(power) * (1 / float64(d.ring.Cap()))
	return m * 2
}
