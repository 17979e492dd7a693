// Package metrics provides the recorders the experiments use to produce
// the paper's tables and figures: binned throughput series, per-packet
// queueing-delay samples with reservoir capping, classification accuracy
// against ground truth, and flow-completion-time collections.
package metrics

import (
	"math"
	"sort"

	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Meter bins delivered bytes into fixed-width time bins and reports a
// throughput series in Mbit/s.
type Meter struct {
	Bin  sim.Time
	bins []float64 // bytes per bin
}

// NewMeter returns a meter with the given bin width (e.g. 1 s).
func NewMeter(bin sim.Time) *Meter { return &Meter{Bin: bin} }

// Add records n bytes delivered at time now.
func (m *Meter) Add(now sim.Time, n int) {
	idx := int(now / m.Bin)
	for len(m.bins) <= idx {
		m.bins = append(m.bins, 0)
	}
	m.bins[idx] += float64(n)
}

// SeriesMbps returns per-bin throughput in Mbit/s.
func (m *Meter) SeriesMbps() []float64 {
	out := make([]float64, len(m.bins))
	secs := m.Bin.Seconds()
	for i, b := range m.bins {
		out[i] = b * 8 / secs / 1e6
	}
	return out
}

// MeanMbps returns the mean throughput over [from, to): the bytes of the
// bins inside it over the whole window asked for, so a flow that went
// silent before to (it was stopped, or starved) averages in its silence
// instead of reading high over a shorter time.
func (m *Meter) MeanMbps(from, to sim.Time) float64 {
	lo, hi := int(from/m.Bin), int(to/m.Bin)
	if lo >= hi {
		return 0
	}
	total := 0.0
	for i := lo; i < hi && i < len(m.bins); i++ {
		total += m.bins[i]
	}
	return total * 8 / (float64(hi-lo) * m.Bin.Seconds()) / 1e6
}

// DelayRecorder collects per-packet queueing (or RTT) delay samples in
// milliseconds, with reservoir sampling beyond a cap so long experiments
// stay in memory. Samples live in fixed-size chunks, so recording writes
// one slot and never copies what was recorded before (one flat slice
// grown by append allocates about four times the bytes it ends up
// holding).
type DelayRecorder struct {
	Cap    int
	chunks [][]float64 // each chunkLen long; sample i is chunks[i>>chunkShift][i&chunkMask]
	n      int         // samples retained, <= Cap
	seen   int
	rng    *sim.Rand
}

const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// NewDelayRecorder returns a recorder keeping at most cap samples.
func NewDelayRecorder(cap int, rng *sim.Rand) *DelayRecorder {
	if cap <= 0 {
		cap = 200000
	}
	return &DelayRecorder{Cap: cap, rng: rng}
}

// Add records a delay sample.
func (d *DelayRecorder) Add(delay sim.Time) {
	d.seen++
	ms := delay.Millis()
	if d.n < d.Cap {
		if d.n>>chunkShift == len(d.chunks) {
			d.chunks = append(d.chunks, make([]float64, chunkLen))
		}
		d.chunks[d.n>>chunkShift][d.n&chunkMask] = ms
		d.n++
		return
	}
	// Reservoir replacement keeps a uniform sample.
	j := d.rng.Intn(d.seen)
	if j < d.Cap {
		d.chunks[j>>chunkShift][j&chunkMask] = ms
	}
}

// Len returns the number of retained samples.
func (d *DelayRecorder) Len() int { return d.n }

// Samples returns a copy of the retained samples (milliseconds), in
// recording order.
func (d *DelayRecorder) Samples() []float64 {
	out := make([]float64, 0, d.n)
	for _, c := range d.chunks {
		out = append(out, c[:min(chunkLen, d.n-len(out))]...)
	}
	return out
}

// sorted returns the retained samples in ascending order.
func (d *DelayRecorder) sorted() []float64 {
	s := d.Samples()
	sort.Float64s(s)
	return s
}

// Summary summarizes the samples.
func (d *DelayRecorder) Summary() stats.Summary { return stats.SummarizeSorted(d.sorted()) }

// MeanQuantiles returns the sample mean and the requested quantiles with a
// single sort of one copy — what report emission needs (mean, p50, p95)
// without Summary's full order-statistic battery. The mean is accumulated
// over the sorted copy exactly like Summary's, so switching emission from
// Summary() to MeanQuantiles changes no reported value. Empty input yields
// NaNs throughout.
func (d *DelayRecorder) MeanQuantiles(ps ...float64) (mean float64, qs []float64) {
	if d.n == 0 {
		qs = make([]float64, len(ps))
		for i := range qs {
			qs[i] = math.NaN()
		}
		return math.NaN(), qs
	}
	s := d.sorted()
	var w stats.Welford
	for _, x := range s {
		w.Add(x)
	}
	return w.Mean(), stats.PercentilesSorted(s, ps...)
}

// AccuracyTracker scores a binary classifier against ground truth over
// time, integrating the fraction of time the prediction is correct
// (the paper's accuracy metric in §8.2).
type AccuracyTracker struct {
	Warmup sim.Time // ignore decisions before this time

	lastT     sim.Time
	lastPred  bool
	lastTruth bool
	have      bool
	correct   sim.Time
	total     sim.Time
}

// Observe records the classifier state at time now. Call on every
// decision tick; time is credited to the previous state.
func (a *AccuracyTracker) Observe(now sim.Time, predictedElastic, trulyElastic bool) {
	if a.have && a.lastT >= a.Warmup {
		dt := now - a.lastT
		a.total += dt
		if a.lastPred == a.lastTruth {
			a.correct += dt
		}
	}
	a.lastT, a.lastPred, a.lastTruth, a.have = now, predictedElastic, trulyElastic, true
}

// Accuracy returns the time-weighted fraction of correct classification.
func (a *AccuracyTracker) Accuracy() float64 {
	if a.total == 0 {
		return 0
	}
	return a.correct.Seconds() / a.total.Seconds()
}

// TotalScored returns how much time has been scored.
func (a *AccuracyTracker) TotalScored() sim.Time { return a.total }

// FCTRecord is one flow completion.
type FCTRecord struct {
	SizeBytes int
	FCT       sim.Time
}

// FCTBuckets groups completion times by the paper's size buckets
// (Fig. 21) and reports the p95 per bucket.
func FCTBuckets(recs []FCTRecord) map[string]stats.Summary {
	buckets := map[string][]float64{}
	for _, r := range recs {
		var name string
		switch {
		case r.SizeBytes <= 15e3:
			name = "15KB"
		case r.SizeBytes <= 150e3:
			name = "150KB"
		case r.SizeBytes <= 1.5e6:
			name = "1.5MB"
		case r.SizeBytes <= 15e6:
			name = "15MB"
		default:
			name = "150MB"
		}
		buckets[name] = append(buckets[name], r.FCT.Seconds())
	}
	out := map[string]stats.Summary{}
	for k, v := range buckets {
		out[k] = stats.Summarize(v)
	}
	return out
}
