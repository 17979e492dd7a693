// Package stats provides the small statistical toolbox the experiments
// need: running moments, percentiles, exponentially weighted
// moving averages, windowed extrema, and histograms. Everything is
// allocation-conscious but favours clarity; the simulator is the hot path,
// not the statistics.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates the mean in a single pass.
type Welford struct {
	n    int
	mean float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
// The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	lo, hi, frac := rank(len(sorted), p)
	return interpolate(sorted[lo], sorted[hi], frac)
}

// rank locates the p-quantile of n > 0 sorted samples: the two order
// statistics it lies between and how far from the lower one.
func rank(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 1 {
		return n - 1, n - 1, 0
	}
	pos := p * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// interpolate is the quantile a frac of the way from order statistic lo
// to the next one, hi; frac is 0 exactly when the quantile falls on lo.
func interpolate(lo, hi, frac float64) float64 {
	if frac == 0 {
		return lo
	}
	return lo*(1-frac) + hi*frac
}

// Percentiles returns the p-quantiles (each p in [0,1]) of xs, sorting a
// single copy once — the multi-quantile companion to Percentile, which
// copies and sorts per call. Empty input yields NaN for every quantile.
// The input slice is not modified.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for i, p := range ps {
		out[i] = percentileSorted(cp, p)
	}
	return out
}

// PercentilesSorted is Percentiles for input that is already sorted
// ascending; it neither copies nor sorts.
func PercentilesSorted(sorted []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// EWMA is an exponentially weighted moving average with a fixed smoothing
// factor per sample. The zero value is ready to use: the first sample
// initializes the average.
type EWMA struct {
	Alpha float64 // weight of the new sample, in (0,1]
	val   float64
	init  bool
}

// NewEWMA returns an EWMA with the given per-sample weight.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// AlphaForCutoff returns the EWMA weight that implements a single-pole
// low-pass filter with cutoff frequency fc (Hz) when sampled every dt
// seconds: alpha = dt / (dt + 1/(2*pi*fc)).
func AlphaForCutoff(fc, dt float64) float64 {
	rc := 1 / (2 * math.Pi * fc)
	return dt / (dt + rc)
}

// Add incorporates a sample and returns the new average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.val, e.init = x, true
		return x
	}
	e.val += e.Alpha * (x - e.val)
	return e.val
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.val }
