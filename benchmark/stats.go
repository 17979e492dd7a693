package main

import (
	"fmt"
	"math"
	"sort"

	"nimbus/internal/stats"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples. Timings in this harness are medians,
// never means: one stalled pass on a shared box must not move the
// number.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// fastest returns the smallest of xs, or 0 for no samples. It is what
// wall_s reports of a run's passes. The passes of a run execute the same
// deterministic work, so they differ only by what the shared host added
// — a neighbour's burst, a descheduled vCPU — and that is only ever
// added, never subtracted. A slow spell of the host that covers half a
// run moves the median of its passes and leaves the fastest alone, which
// is what keeps ten runs on ten seeds within the metric's bound.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minTailSamples is how many samples must lie beyond a percentile for
// the harness to report it: with fewer, the percentile is one or two
// stalls on a shared box, and does not repeat.
const minTailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses — returns an error
// — when fewer than minTailSamples samples lie beyond the percentile on
// its thinner side, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	tail := math.Min(p, 1-p)
	if beyond := tail * float64(len(xs)); beyond < minTailSamples-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d",
			p*100, len(xs), beyond, minTailSamples)
	}
	return stats.Percentile(xs, p), nil
}

// percentileOrZero is percentile for informational per-layer metrics:
// an unsupported percentile reads 0 ("not measured") instead of a number
// that would not repeat.
func percentileOrZero(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does,
// because that is what the benchmark's acceptance rule is written
// against. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their
// median: the run-to-run spread the acceptance rule bounds.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
