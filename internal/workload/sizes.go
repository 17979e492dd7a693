package workload

import (
	"math"

	"nimbus/internal/sim"
)

// Sampler is a flow-size distribution: it draws sizes in bytes and knows
// its analytic mean, which turns an offered load into a Poisson arrival
// rate. Samplers differ in how many variates a draw consumes, so a
// Generator swaps the sampler whole, never its parameters.
type Sampler interface {
	Sample(rng *sim.Rand) int
	MeanBytes() float64
}

// SizeDist draws flow sizes from a bounded Pareto distribution on
// [XM, Cap] bytes with shape Alpha — the standard heavy-tailed model for
// Internet flow sizes: most flows are mice, most bytes belong to
// elephants, and the Cap bound keeps the mean finite (and the simulation
// horizon meaningful) even at shapes ≤ 1.
type SizeDist struct {
	XM, Cap float64 // minimum and maximum size, bytes
	Alpha   float64 // tail shape; smaller is heavier
}

// Sample draws one flow size by inverse-CDF, consuming one variate.
func (d SizeDist) Sample(rng *sim.Rand) int {
	u := rng.Float64()
	r := d.XM / d.Cap
	var x float64
	if d.Alpha == 1 {
		x = d.XM / (1 - u*(1-r))
	} else {
		x = d.XM / math.Pow(1-u*(1-math.Pow(r, d.Alpha)), 1/d.Alpha)
	}
	if x > d.Cap {
		x = d.Cap // guard float round-up at u → 1
	}
	return int(x)
}

// MeanBytes returns the distribution's analytic mean, used to convert an
// offered load into a Poisson arrival rate.
func (d SizeDist) MeanBytes() float64 {
	r := d.XM / d.Cap
	if d.Alpha == 1 {
		return d.XM * math.Log(d.Cap/d.XM) / (1 - r)
	}
	a := d.Alpha
	num := math.Pow(d.XM, a) * a / (a - 1) * (math.Pow(d.XM, 1-a) - math.Pow(d.Cap, 1-a))
	return num / (1 - math.Pow(r, a))
}

// HeavyTailedSizes is the stand-in for the CAIDA 2016 flow-size
// distribution (§8.1): a bucketed log-uniform mixture whose bytes are
// dominated by a small number of very large flows, so the offered load
// alternates between periods with large elastic flows and periods of
// only short/inelastic flows — the structure Figs 9–12 depend on.
//
// Buckets (probability, size range): most flows are small (mice), most
// bytes belong to elephants, mean ≈ 1.4 MB.
type HeavyTailedSizes struct{}

type sizeBucket struct {
	p      float64
	lo, hi float64 // bytes
}

var caidaBuckets = []sizeBucket{
	{0.55, 2e3, 15e3},
	{0.30, 15e3, 150e3},
	{0.10, 150e3, 1.5e6},
	{0.04, 1.5e6, 15e6},
	{0.009, 15e6, 150e6},
	{0.001, 150e6, 300e6},
}

// Sample draws one flow size, consuming two variates: the bucket, then
// the log-uniform position within it.
func (HeavyTailedSizes) Sample(rng *sim.Rand) int {
	u := rng.Float64()
	acc := 0.0
	b := caidaBuckets[len(caidaBuckets)-1]
	for _, c := range caidaBuckets {
		acc += c.p
		if u < acc {
			b = c
			break
		}
	}
	lo, hi := b.lo, b.hi
	v := lo * math.Pow(hi/lo, rng.Float64())
	return int(v)
}

// MeanBytes returns the analytic mean of the distribution. For a
// log-uniform on [lo,hi] the mean is (hi-lo)/ln(hi/lo).
func (HeavyTailedSizes) MeanBytes() float64 {
	m := 0.0
	for _, b := range caidaBuckets {
		m += b.p * (b.hi - b.lo) / math.Log(b.hi/b.lo)
	}
	return m
}
