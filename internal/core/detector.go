package core

import (
	"math"

	"nimbus/internal/fft"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// DetectorConfig parameterizes the elasticity detector (§3.4).
type DetectorConfig struct {
	// SampleInterval is the spacing of ẑ samples (the paper's CCP
	// implementation reports measurements every 10 ms).
	SampleInterval sim.Time
	// FFTDuration is the window over which the FFT is computed (5 s).
	FFTDuration sim.Time
	// Threshold is ηthresh; cross traffic with η >= Threshold is
	// classified elastic (2, chosen in Fig. 6).
	Threshold float64
	// RFFT is ignored. It used to select a packed real-input transform;
	// the detector has one spectrum path now (DESIGN.md, "Decided: one
	// spectrum path"). The field is kept only because the benchmark
	// harness, which a change to the detector may not edit, still sets it.
	RFFT bool
}

// DefaultDetectorConfig returns the paper's parameters: 10 ms samples,
// 5 s FFT window, ηthresh = 2.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		SampleInterval: 10 * sim.Millisecond,
		FFTDuration:    5 * sim.Second,
		Threshold:      2,
	}
}

// Detector decides whether cross traffic contains elastic (ACK-clocked)
// flows by looking for periodicity at the pulse frequency in the
// cross-traffic rate estimate ẑ (§3.3). η (Eq. 3) compares the FFT
// magnitude at fp with the largest magnitude in (fp, 2fp); a pronounced
// peak at fp only appears when the cross traffic reacts to the pulses.
//
// Those reads touch a few dozen of the window's 257 bins, so once the
// window is full the detector keeps a sliding DFT over just the bins its
// callers have asked about (band.go): AddSample advances it in O(bins)
// and a read is one pass over the band, with no transform and no
// allocation. A detector nobody reads tracks nothing and pays only the
// ring push. The full transform (an fft.Plan, built at first use) remains
// for Spectrum, for reads before the window is full, and for bands that
// reach bin 0 or Nyquist; it is also what the tests compare the band
// against.
type Detector struct {
	cfg  DetectorConfig
	ring *stats.Ring
	buf  []float64 // window snapshot, oldest first

	bands []band // bandFor's cache
	band  bandTracker

	plan *fft.Plan // built by the first Spectrum call
	// Cached per-generation spectrum. spec.Mag is owned by the detector
	// and overwritten at the first read after the next AddSample; callers
	// must not retain it across samples.
	spec     fft.Spectrum
	specMean float64 // window mean computed with the snapshot, for Mean()
	specGen  uint64
	haveSpec bool
	gen      uint64 // bumped on every AddSample
}

// NewDetector returns a detector; zero-value fields of cfg take the
// defaults.
func NewDetector(cfg DetectorConfig) *Detector {
	def := DefaultDetectorConfig()
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = def.SampleInterval
	}
	if cfg.FFTDuration <= 0 {
		cfg.FFTDuration = def.FFTDuration
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = def.Threshold
	}
	n := int(cfg.FFTDuration / cfg.SampleInterval)
	if n < 8 {
		n = 8
	}
	return &Detector{
		cfg:  cfg,
		ring: stats.NewRing(n),
		band: bandTracker{n: n, size: fft.NextPow2(n)},
	}
}

// Config returns the detector's configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// AddSample appends one ẑ sample (call every SampleInterval).
func (d *Detector) AddSample(z float64) {
	if d.band.synced {
		n := d.ring.Cap()
		d.band.advance(d.ring.At(n-1), d.ring.At(n-2), d.ring.At(0), z)
	}
	d.ring.Push(z)
	d.gen++
}

// Ready reports whether a full FFT window of samples has accumulated.
func (d *Detector) Ready() bool { return d.ring.Full() }

// SampleHz returns the sampling frequency of the ẑ series.
func (d *Detector) SampleHz() float64 { return 1 / d.cfg.SampleInterval.Seconds() }

// Mean returns the mean of the samples currently in the window, O(1):
// the ring's windowed sum over the sample count, or, when Spectrum has
// run since the last AddSample, exactly the mean its DC removal used.
func (d *Detector) Mean() float64 {
	if d.haveSpec && d.specGen == d.gen {
		return d.specMean
	}
	n := d.ring.Len()
	if n == 0 {
		return 0
	}
	return d.ring.Sum() / float64(n)
}

// Spectrum returns the current one-sided magnitude spectrum of the ẑ
// window (mean removed), by a full transform. It is the diagnostic view
// (Fig. 5, cmd/elasticity) and the fallback of the η reads; the per-tick
// reads of a full window do not come through here. The returned
// spectrum's Mag buffer is owned by the detector and valid until the next
// AddSample; repeated calls within one tick reuse the cached transform.
func (d *Detector) Spectrum() fft.Spectrum {
	if !d.haveSpec || d.specGen != d.gen {
		if d.plan == nil {
			d.plan = fft.NewPlan(d.ring.Cap(), d.SampleHz())
		}
		d.buf = d.ring.Snapshot(d.buf)
		d.spec, d.specMean = d.plan.AnalyzeMeanInto(d.spec, d.buf)
		d.specGen = d.gen
		d.haveSpec = true
	}
	return d.spec
}

// Elasticity computes η (Eq. 3) for pulse frequency fp: the magnitude at
// fp divided by the peak magnitude in the open band (fp, 2fp). Because
// the FFT length is a power of two, fp generally falls between bins; the
// numerator takes the peak within one bin of fp and the denominator
// starts a small guard band above fp to keep spectral leakage of the fp
// peak itself out of the denominator. A denominator of zero yields a
// large capped η.
func (d *Detector) Elasticity(fp float64) float64 {
	return d.ElasticityExcluding(fp, 0)
}

// ElasticityExcluding is Elasticity with an optional second frequency
// excluded from the denominator band (±1.5 bins). The multi-flow watcher
// protocol needs this: with a pulser at fpc and the band (fpc, 2fpc)
// containing fpd, a legitimate peak at fpd must not suppress η.
func (d *Detector) ElasticityExcluding(fp, exclude float64) float64 {
	b := d.bandFor(fp, exclude)
	lo, hi := b.span()
	if power, first, ok := d.bandPower(lo, hi); ok {
		// η is a ratio, so the 2/n that turns |X_k| into a magnitude
		// cancels.
		num, den := b.peaks(power, first)
		return eta(math.Sqrt(num), math.Sqrt(den))
	}
	spec := d.Spectrum()
	if len(spec.Mag) == 0 || spec.Resolution == 0 {
		return 0
	}
	// A window still filling pads to a shorter transform, so its bins
	// are not the cached band's.
	short := newBand(len(spec.Mag), spec.Resolution, fp, exclude)
	return eta(short.peaks(spec.Mag, 0))
}

// PeakAround returns the largest magnitude within one bin of fp, scaled
// like Spectrum's (a unit-amplitude sinusoid at a bin frequency reads
// ~1). The multi-pulser check compares it between the ẑ and R detectors.
func (d *Detector) PeakAround(fp float64) float64 {
	b := d.bandFor(fp, 0)
	if power, first, ok := d.bandPower(b.numLo, b.numHi); ok {
		return d.magnitude(peak(power, b.numLo-first, b.numHi-first))
	}
	spec := d.Spectrum()
	return spec.PeakAround(fp, spec.Resolution)
}

// eta is Eq. 3 from the two peak magnitudes, capped; a zero denominator
// reads as the cap when there is any numerator and as 0 otherwise.
func eta(num, den float64) float64 {
	const etaCap = 100
	if den <= 0 {
		if num > 0 {
			return etaCap
		}
		return 0
	}
	eta := num / den
	if eta > etaCap {
		eta = etaCap
	}
	return eta
}

// Elastic applies the hard decision rule: η >= ηthresh.
func (d *Detector) Elastic(fp float64) bool {
	return d.Elasticity(fp) >= d.cfg.Threshold
}

// Threshold returns ηthresh.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// WindowSamples returns the number of samples in the FFT window.
func (d *Detector) WindowSamples() int { return d.ring.Cap() }
