// Package metrics provides the recorders the experiments use to produce
// the paper's tables and figures: binned throughput series, per-packet
// queueing-delay samples with reservoir capping, classification accuracy
// against ground truth, and flow-completion-time collections.
package metrics

import (
	"cmp"
	"math"
	"slices"
	"sync"

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

// DelayRecorder collects per-packet queueing (or RTT) delay samples, with
// reservoir sampling beyond a cap so long experiments stay in memory, and
// reports their statistics in milliseconds. Samples live in fixed-size
// chunks, so recording writes one slot and never copies what was recorded
// before (one flat slice grown by append allocates about four times the
// bytes it ends up holding).
//
// A sample is stored as the delay's nanosecond count, in 32 bits while
// every sample fits [0, 2^32) ns (4.29 s: every queueing delay and RTT a
// figure records): half the bytes of float64 milliseconds, in the
// reservoirs that make up most of a sweep's live heap. The first sample
// outside that range (a long flow's completion time, a negative delay)
// moves the recorder once to 64-bit sim.Time slots, which hold any
// delay, for the rest of its life. A read converts each sample to
// milliseconds as it consumes it (sim.Time.Millis), and that map is
// monotone, so sorting the integers orders the milliseconds as sorting
// them would: every statistic is bit for bit what storing float64
// milliseconds reads.
//
// Chunks come from pools (one per width) shared by every recorder of the
// process and go back in Release, so a sweep's cells pass one set of
// chunks along instead of each building a reservoir for the collector.
// The statistics (MeanQuantiles) are read in place: a read sorts every
// chunk where it lies and walks the sorted chunks as one ascending
// sequence, so no flat copy is built — and the retained samples are
// afterwards stored in another order. That is invisible while the
// recorder is below its cap (Add appends), but a reservoir replacement
// picks its victim by position, so an Add at the cap after a read would
// record a different sample set than the same Adds without the read: it
// panics.
type DelayRecorder struct {
	Cap     int
	narrow  []*[chunkLen]uint32   // sample i is narrow[i>>chunkShift][i&chunkMask]
	wide    []*[chunkLen]sim.Time // the same, once widened
	widened bool                  // a sample fell outside [0, 2^32) ns
	n       int                   // samples retained, <= Cap
	seen    int
	rng     *sim.Rand
	read    bool // a statistic has been read: storage is no longer in recording order
}

const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// narrowPool and widePool hold the chunks no recorder is using. A chunk
// from them has whatever a previous recorder left in it: n bounds every
// read.
var (
	narrowPool = sync.Pool{New: func() any { return new([chunkLen]uint32) }}
	widePool   = sync.Pool{New: func() any { return new([chunkLen]sim.Time) }}
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
	i := d.n
	if i >= d.Cap {
		if d.read {
			panic("metrics: DelayRecorder.Add at the cap after a read: reading reorders storage, so the reservoir would replace a different sample")
		}
		// Reservoir replacement keeps a uniform sample.
		if i = d.rng.Intn(d.seen); i >= d.Cap {
			return
		}
	}
	c, k := i>>chunkShift, i&chunkMask
	if !d.widened && uint64(delay) < 1<<32 {
		if c == len(d.narrow) {
			d.narrow = append(d.narrow, narrowPool.Get().(*[chunkLen]uint32))
		}
		d.narrow[c][k] = uint32(delay)
	} else {
		if !d.widened {
			d.widen()
		}
		if c == len(d.wide) {
			d.wide = append(d.wide, widePool.Get().(*[chunkLen]sim.Time))
		}
		d.wide[c][k] = delay
	}
	if i == d.n {
		d.n++ // appended below the cap
	}
}

// widen moves the n retained samples to 64-bit chunks, each to the
// position it held, and hands the narrow chunks back.
func (d *DelayRecorder) widen() {
	d.widened = true
	for c, nc := range d.narrow {
		wc := widePool.Get().(*[chunkLen]sim.Time)
		for k, v := range nc[:min(chunkLen, d.n-c<<chunkShift)] {
			wc[k] = sim.Time(v)
		}
		d.wide = append(d.wide, wc)
		narrowPool.Put(nc)
	}
	d.narrow = nil
}

// Len returns the number of retained samples.
func (d *DelayRecorder) Len() int { return d.n }

// Release hands the recorder's chunks to the next recorder and leaves
// this one empty (Len 0, NaN statistics). A caller that is done reading
// calls it; one that never does leaves the chunks to the collector.
// Releasing twice is a no-op.
func (d *DelayRecorder) Release() {
	for _, c := range d.narrow {
		narrowPool.Put(c)
	}
	for _, c := range d.wide {
		widePool.Put(c)
	}
	*d = DelayRecorder{Cap: d.Cap, rng: d.rng}
}

// runs returns the retained samples of chunks as one slice per chunk, in
// storage order.
func runs[T any](chunks []*[chunkLen]T, n int) [][]T {
	out := make([][]T, len(chunks))
	for i, c := range chunks {
		out[i] = c[:min(chunkLen, n-i<<chunkShift)]
	}
	return out
}

// moments sorts every chunk in place and reads the chunks as the one
// ascending sequence a sorted flat copy of the millisecond values would
// be: the running moments accumulated in that order and the requested
// quantiles.
func (d *DelayRecorder) moments(ps ...float64) (stats.Welford, []float64) {
	d.read = true
	if d.widened {
		return sortedMoments(runs(d.wide, d.n), sim.Time.Millis, ps)
	}
	return sortedMoments(runs(d.narrow, d.n), func(v uint32) float64 { return sim.Time(v).Millis() }, ps)
}

func sortedMoments[T cmp.Ordered](runs [][]T, ms func(T) float64, ps []float64) (stats.Welford, []float64) {
	for _, r := range runs {
		slices.Sort(r)
	}
	return stats.MergeSorted(runs, ms, ps...)
}

// MeanQuantiles returns the sample mean, accumulated in ascending order,
// and the requested quantiles, in milliseconds, from one ordered read.
// Empty input yields NaNs throughout.
func (d *DelayRecorder) MeanQuantiles(ps ...float64) (mean float64, qs []float64) {
	w, qs := d.moments(ps...)
	if w.N() == 0 {
		return math.NaN(), qs
	}
	return w.Mean(), qs
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
func FCTBuckets(recs []FCTRecord) map[string]float64 {
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
	out := map[string]float64{}
	for k, v := range buckets {
		out[k] = stats.Percentile(v, 0.95)
	}
	return out
}
