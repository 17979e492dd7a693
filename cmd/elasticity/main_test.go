package main

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/sim"
)

// TestCheckDurations: a zero or negative -interval or -window is a flag
// error (on stdin a zero interval silently fell back to the 10 ms
// default), and so is a window of more than maxWindowSamples samples,
// which the detector would otherwise try to allocate.
func TestCheckDurations(t *testing.T) {
	ok := 10 * time.Millisecond
	for _, c := range []struct{ interval, window time.Duration }{
		{ok, 5 * time.Second},
		{time.Microsecond, maxWindowSamples * time.Microsecond},
	} {
		if err := checkDurations(c.interval, c.window); err != nil {
			t.Errorf("interval=%v window=%v rejected: %v", c.interval, c.window, err)
		}
	}
	for _, c := range []struct {
		want             string
		interval, window time.Duration
	}{
		{"-interval must be > 0", 0, time.Second},
		{"-interval must be > 0", -ok, time.Second},
		{"-window must be > 0", ok, 0},
		{"-window must be > 0", ok, -time.Second},
		{"-window 5s at a 1ns -interval is 5000000000 samples", time.Nanosecond, 5 * time.Second},
	} {
		err := checkDurations(c.interval, c.window)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("interval=%v window=%v: error %v, want one starting %q", c.interval, c.window, err, c.want)
		}
	}
}

// TestCheckThreshold: the η threshold must be finite and positive. The
// detector used to replace a value <= 0 with 2 while the verdicts
// compared against the raw value, so 0 and -1 read ELASTIC on white
// noise and NaN read INELASTIC on a pure pulse.
func TestCheckThreshold(t *testing.T) {
	for _, v := range []float64{2, 0.5, 1e-9, 100} {
		if err := checkThreshold(v); err != nil {
			t.Errorf("threshold %v rejected: %v", v, err)
		}
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkThreshold(v); err == nil || !strings.HasPrefix(err.Error(), "-threshold") {
			t.Errorf("threshold %v: error %v, want one naming -threshold", v, err)
		}
	}
}

// TestParseFreqs: every -fp value must be finite, positive, have its
// (fp, 2fp) band below Nyquist and at least one bin in η's denominator
// band; each of these used to print a verdict (fp 0, -5, 50 and 1e9 read
// ELASTIC on any input, and so did fp 5 at a 200 ms window: η at its cap).
func TestParseFreqs(t *testing.T) {
	const interval = 10 * time.Millisecond // Nyquist 50 Hz: fp up to 25 Hz
	const window = 5 * time.Second
	got, err := parseFreqs(" 5, 2,,25 ", interval, window)
	if err != nil || !slices.Equal(got, []float64{5, 2, 25}) {
		t.Fatalf("parseFreqs(5,2,25) = %v, %v", got, err)
	}
	for _, c := range []struct {
		fp               string
		interval, window time.Duration
		ok               bool
	}{
		{"0", interval, window, false},
		{"-5", interval, window, false},
		{"50", interval, window, false},
		{"49", interval, window, false},
		{"25.01", interval, window, false},
		{"1e9", interval, window, false},
		{"NaN", interval, window, false},
		{"Inf", interval, window, false},
		{"-Inf", interval, window, false},
		{"5,x", interval, window, false},
		{"", interval, window, false},
		{",", interval, window, false},
		// A slower interval lowers the ceiling: at 100 ms, Nyquist is 5 Hz.
		{"5", 100 * time.Millisecond, window, false},
		{"2.5", 100 * time.Millisecond, window, true},
		// A short window's bins are too far apart for the denominator
		// band (fp+2·bin, 2fp-bin): 3.125 Hz at 200 ms and 10 ms.
		{"5", interval, 200 * time.Millisecond, false},
		{"5", interval, 100 * time.Millisecond, false},
		{"5", interval, 80 * time.Millisecond, false},
		{"5", interval, 20 * time.Millisecond, false},
		{"0.1", interval, window, false},
		{"5", interval, time.Second, true},
		{"0.5", interval, 20 * time.Second, true},
	} {
		got, err := parseFreqs(c.fp, c.interval, c.window)
		if (err == nil) != c.ok {
			t.Errorf("parseFreqs(%q, %v, %v) = %v, %v; want ok=%v", c.fp, c.interval, c.window, got, err, c.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-fp") {
			t.Errorf("parseFreqs(%q, %v, %v): error %v does not name -fp", c.fp, c.interval, c.window, err)
		}
	}
}

// TestParseFreqsMatchesDetector: parseFreqs rejects a frequency on band
// grounds exactly when the detector, given a full window of white noise,
// reads η at its cap of 100 (an empty denominator band).
func TestParseFreqsMatchesDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const interval = 10 * time.Millisecond
	for _, window := range []time.Duration{80 * time.Millisecond, 200 * time.Millisecond, 640 * time.Millisecond, time.Second, 5 * time.Second} {
		det := core.NewDetector(core.DetectorConfig{
			SampleInterval: sim.FromDuration(interval),
			FFTDuration:    sim.FromDuration(window),
		})
		for !det.Ready() {
			det.AddSample(48e6 + 6e6*rng.NormFloat64())
		}
		for _, fp := range []float64{0.5, 1, 2, 3, 5, 8, 12.5, 20, 25} {
			_, err := parseFreqs(strconv.FormatFloat(fp, 'g', -1, 64), interval, window)
			capped := det.Elasticity(fp) == 100
			if (err != nil) != capped {
				t.Errorf("window %v fp %v: parseFreqs error %v, detector η capped %v", window, fp, err, capped)
			}
		}
	}
}

// TestReadSamplesSkipsNonFinite: a NaN or infinite line is skipped like
// any unparseable one, so it cannot turn the window's η into 0 or NaN.
func TestReadSamplesSkipsNonFinite(t *testing.T) {
	in := "# rate\n1\n0.5,2\nNaN\n+Inf\n3,-Inf\ninfinity\n1e999\nx\n\n4\n"
	got, err := readSamples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
}
