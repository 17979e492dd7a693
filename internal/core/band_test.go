package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nimbus/internal/fft"
	"nimbus/internal/sim"
)

// The band path's oracle is the full transform, read the way the detector
// read it before it tracked bands: oracleEta is that loop, verbatim.

func oracleSpectrum(d *fed) fft.Spectrum {
	return d.oracle.AnalyzeInto(fft.Spectrum{}, d.ring.Snapshot(nil))
}

func oracleEta(spec fft.Spectrum, fp, exclude float64) float64 {
	if len(spec.Mag) == 0 || spec.Resolution == 0 {
		return 0
	}
	res := spec.Resolution
	num := spec.PeakAround(fp, res)
	den := 0.0
	for k := range spec.Mag {
		f := float64(k) * res
		if f <= fp+2*res || f >= 2*fp-res {
			continue
		}
		if exclude > 0 && f > exclude-1.5*res && f < exclude+1.5*res {
			continue
		}
		if spec.Mag[k] > den {
			den = spec.Mag[k]
		}
	}
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

// fed is a detector with the samples it has been given, which the
// tolerance needs.
type fed struct {
	*Detector
	hist   []float64
	oracle *fft.Plan
	tolAt  int // len(hist) that tolVal was computed at
	tolVal float64
}

func newFed(cfg DetectorConfig) *fed {
	d := NewDetector(cfg)
	return &fed{Detector: d, oracle: fft.NewPlan(d.WindowSamples(), d.SampleHz())}
}

func (d *fed) AddSample(z float64) {
	d.Detector.AddSample(z)
	d.hist = append(d.hist, z)
}

// tol is how far a band magnitude may sit from the oracle's: 1e-9 of the
// spectrum's peak. The sums carry the samples' DC level, which the full
// transform removes before it starts, and keep their rounding until the
// next recompute, up to a window later. That rounding is about n·ε of the
// largest sample of the last two windows, so where 1e-13 of that sample
// is more than 1e-9 of the peak — a nearly constant window, or a small
// signal right after a large one — it is the bound.
func (d *fed) tol(spec fft.Spectrum) float64 {
	if d.tolAt == len(d.hist) {
		return d.tolVal // several checks per tick share one window
	}
	level := 0.0
	for _, x := range d.hist[max(0, len(d.hist)-2*d.WindowSamples()):] {
		level = math.Max(level, math.Abs(x))
	}
	d.tolAt, d.tolVal = len(d.hist), math.Max(1e-9*peak(spec.Mag, 0, len(spec.Mag)-1), 1e-13*level)
	return d.tolVal
}

// checkBand compares every tracked bin with the oracle spectrum.
func (d *fed) checkBand(t *testing.T, spec fft.Spectrum, at string) {
	t.Helper()
	if !d.band.synced {
		t.Fatalf("%s: band not tracked after a read", at)
	}
	tol := d.tol(spec)
	for i, p := range d.band.power {
		k := d.band.lo + i
		if got := d.magnitude(p); math.Abs(got-spec.Mag[k]) > tol {
			t.Fatalf("%s: bin %d = %v, full transform %v (tolerance %v)", at, k, got, spec.Mag[k], tol)
		}
	}
}

// checkEta compares an η read with the oracle's, allowing what tol on the
// two magnitudes allows on their ratio.
func (d *fed) checkEta(t *testing.T, spec fft.Spectrum, fp, exclude float64, at string) {
	t.Helper()
	got, want := d.ElasticityExcluding(fp, exclude), oracleEta(spec, fp, exclude)
	if got == want {
		return
	}
	b := newBand(len(spec.Mag), spec.Resolution, fp, exclude)
	num, den := b.peaks(spec.Mag, 0)
	delta := d.tol(spec)
	if den <= 2*delta && got >= 0 {
		return // the denominator is inside the tolerance: the window does not define η
	}
	if den > 2*delta && math.Abs(got-want) <= delta*(num+den)/(den*(den-delta)) {
		return
	}
	t.Fatalf("%s: η(%v, excl %v) = %v, full transform %v (num %v den %v tolerance %v)", at, fp, exclude, got, want, num, den, delta)
}

// regimes drives a detector through the inputs the tracker has to
// survive: a pulse in noise, a DC level that steps by 1e3 in both
// directions, stretches of exact zeros and of a repeated non-zero value.
func regimes(rng *rand.Rand, ticks int, emit func(i int, z float64)) {
	dc, left, kind := 48e6, 0, 0
	for i := 0; i < ticks; i++ {
		if left == 0 {
			left = 200 + rng.Intn(1400)
			kind = rng.Intn(5)
			if kind == 4 {
				dc = []float64{48e3, 48e6, 48e9}[rng.Intn(3)]
			}
		}
		left--
		z := dc + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01) + 2e6*math.Sin(2*math.Pi*6*float64(i)*0.01) + 1e6*rng.NormFloat64()
		switch kind {
		case 0:
			z = 0
		case 1:
			z = dc
		}
		emit(i, z)
	}
}

// Every tick of a long run, each band magnitude and η agree with a full
// transform of the same window: for the two multi-flow bands, each
// excluding the other's frequency, and for pulse frequencies anywhere
// the band path serves.
func TestBandMatchesPlan(t *testing.T) {
	ticks := 25000
	if testing.Short() {
		ticks = 5000
	}
	t.Run("fp=5,6", func(t *testing.T) {
		d := newFed(DefaultDetectorConfig())
		regimes(rand.New(rand.NewSource(1)), ticks, func(i int, z float64) {
			d.AddSample(z)
			if !d.Ready() {
				return
			}
			spec := oracleSpectrum(d)
			d.checkEta(t, spec, 5, 6, "fp=5 excl 6")
			d.checkEta(t, spec, 6, 5, "fp=6 excl 5")
			if got, want := d.PeakAround(6), spec.PeakAround(6, spec.Resolution); math.Abs(got-want) > d.tol(spec) {
				t.Fatalf("tick %d: PeakAround(6) = %v, full transform %v", i, got, want)
			}
			d.checkBand(t, spec, "fp=5,6")
		})
		if d.plan != nil {
			t.Fatal("per-tick reads of a full window built the full-transform plan")
		}
	})
	t.Run("arbitrary fp", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for run := 0; run < 5; run++ {
			fp := 0.8 + 24*rng.Float64()
			d := newFed(DefaultDetectorConfig())
			regimes(rng, ticks/5, func(i int, z float64) {
				d.AddSample(z)
				if !d.Ready() {
					return
				}
				spec := oracleSpectrum(d)
				d.checkEta(t, spec, fp, 0, "arbitrary fp")
				d.checkBand(t, spec, "arbitrary fp")
			})
		}
	})
}

// A second pulse frequency asked about mid-run widens the tracked range
// by a recompute from the ring: from then on the detector reads like one
// that was fed only the current window and asked both from the start.
func TestBandGrowsLikeFresh(t *testing.T) {
	d := newFed(DefaultDetectorConfig())
	regimes(rand.New(rand.NewSource(3)), 1733, func(i int, z float64) {
		d.AddSample(z)
		if d.Ready() {
			d.Elasticity(5)
		}
	})
	lo, hi := d.band.lo, d.band.hi
	eta6 := d.Elasticity(6)
	if d.band.lo > lo || d.band.hi <= hi {
		t.Fatalf("tracked range [%d,%d] did not grow past [%d,%d]", d.band.lo, d.band.hi, lo, hi)
	}
	fresh := newFed(DefaultDetectorConfig())
	for _, z := range d.hist[len(d.hist)-d.WindowSamples():] {
		fresh.AddSample(z)
	}
	spec := oracleSpectrum(d)
	for _, fp := range []float64{5, 6} {
		if a, b := d.Elasticity(fp), fresh.Elasticity(fp); math.Abs(a-b) > 1e-12*b {
			t.Fatalf("η(%v): grown %v, fresh %v", fp, a, b)
		}
		d.checkEta(t, spec, fp, 0, "grown")
	}
	if eta6 != d.Elasticity(6) {
		t.Fatal("η(6) changed between two reads of one tick")
	}
	d.checkBand(t, spec, "grown")
}

// A detector nobody reads tracks nothing; one that stops being read stops
// tracking within half a window, and when read again answers like a
// fresh detector fed the same window.
func TestBandUnreadDetector(t *testing.T) {
	d := newFed(DefaultDetectorConfig())
	feed := func(ticks int, read bool) {
		regimes(rand.New(rand.NewSource(int64(len(d.hist)))), ticks, func(i int, z float64) {
			d.AddSample(z)
			if read && d.Ready() {
				d.ElasticityExcluding(5, 6)
			}
		})
	}
	feed(900, false)
	if d.band.synced || d.band.tw != nil {
		t.Fatal("an unread detector is tracking a band")
	}
	feed(700, true)
	if !d.band.synced {
		t.Fatal("a detector read every tick is not tracking")
	}
	feed(d.WindowSamples()/2+1, false)
	if d.band.synced || len(d.band.bins) != 0 {
		t.Fatal("still tracking half a window after the last read")
	}
	feed(400, false)
	fresh := newFed(DefaultDetectorConfig())
	for _, z := range d.hist[len(d.hist)-d.WindowSamples():] {
		fresh.AddSample(z)
	}
	if a, b := d.ElasticityExcluding(5, 6), fresh.ElasticityExcluding(5, 6); math.Abs(a-b) > 1e-12*b {
		t.Fatalf("after an unread stretch η = %v, fresh detector %v", a, b)
	}
	d.checkBand(t, oracleSpectrum(d), "reread")
}

// Until the window is full every read is the full transform of the
// samples so far, bit for bit what the detector returned before it had a
// band path. So is a read whose band reaches bin 0 or Nyquist.
func TestBandFallbackIsFullTransform(t *testing.T) {
	d := newFed(DefaultDetectorConfig())
	rng := rand.New(rand.NewSource(4))
	checkEta := func(at string, fp, exclude float64) {
		t.Helper()
		spec := oracleSpectrum(d)
		if got, want := d.ElasticityExcluding(fp, exclude), oracleEta(spec, fp, exclude); got != want {
			t.Fatalf("%s: η(%v, excl %v) = %v, want %v", at, fp, exclude, got, want)
		}
	}
	checkPeak := func(at string, fp float64) {
		t.Helper()
		spec := oracleSpectrum(d)
		if got, want := d.PeakAround(fp), spec.PeakAround(fp, spec.Resolution); got != want {
			t.Fatalf("%s: PeakAround(%v) = %v, want %v", at, fp, got, want)
		}
	}
	if d.Elasticity(5) != 0 || d.PeakAround(5) != 0 {
		t.Fatal("empty detector reads non-zero")
	}
	for i := 0; i < d.WindowSamples()-1; i++ {
		d.AddSample(48e6 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01) + 1e6*rng.NormFloat64())
		checkEta("filling", 5, 0)
		checkEta("filling", 6, 5)
		checkPeak("filling", 6)
	}
	if d.band.synced {
		t.Fatal("tracking before the window is full")
	}
	d.AddSample(48e6)
	// Numerator at bin 0; denominator up to Nyquist; everything past it.
	for _, fp := range []float64{0.05, 0.25, 25.1, 49.9, 60} {
		checkEta("edge band", fp, 0)
	}
	for _, fp := range []float64{0.05, 0.25, 49.9, 60} {
		checkPeak("edge band", fp)
	}
	if d.band.synced {
		t.Fatal("a band reaching bin 0 or Nyquist was tracked")
	}
}

// A constant window has no spectrum once its mean is removed, whatever
// rounding the sums carry from the samples before it.
func TestBandConstantWindowReadsZero(t *testing.T) {
	for _, level := range []float64{0, 48e6, 0.1} {
		d := newFed(DefaultDetectorConfig())
		for i := 0; i < 2*d.WindowSamples(); i++ {
			d.AddSample(48e9 + 6e6*math.Sin(2*math.Pi*5*float64(i)*0.01))
			d.Elasticity(5)
		}
		for i := 0; i < d.WindowSamples(); i++ {
			if d.Elasticity(5) == 0 {
				t.Fatalf("level %v: η = 0 with %d pulse samples still in the window", level, d.WindowSamples()-i)
			}
			d.AddSample(level)
		}
		if eta, pk := d.Elasticity(5), d.PeakAround(5); eta != 0 || pk != 0 {
			t.Fatalf("level %v: constant window reads η = %v, peak %v", level, eta, pk)
		}
	}
}

// FuzzBandMatchesPlan feeds a short-window detector an arbitrary sample
// stream (16-bit values at a scale the first byte picks, so a few hundred
// bytes are many windows) and holds every tick's band read to the full
// transform.
func FuzzBandMatchesPlan(f *testing.F) {
	pulse := []byte{0x41}
	for i := 0; i < 300; i++ {
		pulse = binary.LittleEndian.AppendUint16(pulse, uint16(int16(8000+3000*math.Sin(2*math.Pi*float64(i)/6.3))))
	}
	f.Add(pulse)
	f.Add(append([]byte{0x93}, make([]byte, 400)...))
	steps := []byte{0x2a}
	for i := 0; i < 400; i++ {
		steps = binary.LittleEndian.AppendUint16(steps, uint16(int16(30000*(i/90%2)+i%7)))
	}
	f.Add(steps)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// 60 samples at 100 Hz pad to a 64-point transform: bins 1.5625 Hz
		// apart, pulse frequencies from 4 to 20 Hz.
		d := newFed(DetectorConfig{FFTDuration: 600 * sim.Millisecond})
		fp := 4 + float64(data[0]&0x3f)/4
		scale := []float64{1e-3, 1, 1e3, 1e6}[data[0]>>6]
		for i := 1; i+1 < len(data); i += 2 {
			d.AddSample(scale * float64(int16(binary.LittleEndian.Uint16(data[i:]))))
			if !d.Ready() {
				continue
			}
			spec := oracleSpectrum(d)
			d.checkEta(t, spec, fp, 0, "fuzz")
			if d.band.synced {
				d.checkBand(t, spec, "fuzz")
			}
		}
	})
}
