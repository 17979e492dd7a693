package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCheckDurations: a zero or negative -interval, -window or -trace-dur
// is a flag error (a zero interval never advanced the resampling loops,
// and on stdin silently fell back to the 10 ms default).
func TestCheckDurations(t *testing.T) {
	ok := 10 * time.Millisecond
	if err := checkDurations(ok, 5*time.Second, time.Minute); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct {
		name                       string
		interval, window, traceDur time.Duration
	}{
		{"-interval", 0, time.Second, time.Second},
		{"-interval", -ok, time.Second, time.Second},
		{"-window", ok, 0, time.Second},
		{"-window", ok, -time.Second, time.Second},
		{"-trace-dur", ok, time.Second, 0},
		{"-trace-dur", ok, time.Second, -time.Second},
	} {
		err := checkDurations(c.interval, c.window, c.traceDur)
		if err == nil || !strings.HasPrefix(err.Error(), c.name+" must be > 0") {
			t.Errorf("%s interval=%v window=%v trace-dur=%v: error %v, want one naming %s", c.name, c.interval, c.window, c.traceDur, err, c.name)
		}
	}
}

// TestParseFreqs: every -fp value must be finite, positive and have its
// (fp, 2fp) band below Nyquist; each of these used to print a verdict
// (fp 0, -5, 50 and 1e9 read ELASTIC on any input).
func TestParseFreqs(t *testing.T) {
	const interval = 10 * time.Millisecond // Nyquist 50 Hz: fp up to 25 Hz
	got, err := parseFreqs(" 5, 2,,25 ", interval)
	if err != nil || !slices.Equal(got, []float64{5, 2, 25}) {
		t.Fatalf("parseFreqs(5,2,25) = %v, %v", got, err)
	}
	for _, s := range []string{"0", "-5", "50", "49", "25.01", "1e9", "NaN", "Inf", "-Inf", "5,x", "", ","} {
		if got, err := parseFreqs(s, interval); err == nil {
			t.Errorf("parseFreqs(%q) = %v, want an error", s, got)
		}
	}
	// A slower interval lowers the ceiling: at 100 ms, Nyquist is 5 Hz.
	if _, err := parseFreqs("5", 100*time.Millisecond); err == nil {
		t.Error("fp 5 at a 100 ms interval accepted, want an error")
	}
	if _, err := parseFreqs("2.5", 100*time.Millisecond); err != nil {
		t.Errorf("fp 2.5 at a 100 ms interval: %v", err)
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
