// Command elasticity is the offline measurement/diagnostic use of the
// elasticity detector (§1): feed it a cross-traffic rate time series (one
// value per line, or CSV "t,rate") sampled at a fixed interval, and it
// reports the elasticity metric η and the classification. Several pulse
// frequencies can be tested at once; they are analyzed one after another
// and reported in the order given.
//
// It analyzes a series and nothing else. To ask the detector about a
// capacity trace, a topology, a session workload or a fluid aggregate,
// run the scenario with the pulser present: nimbus-sim -scheme nimbus
// with -link-trace, -topology, -churn, or -cross cubic -fluid on.
//
// Usage:
//
//	elasticity -fp 5 -interval 10ms < zseries.csv
//	elasticity -fp 5,2,1 < zseries.csv
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"nimbus/internal/core"
	"nimbus/internal/fft"
	"nimbus/internal/sim"
)

// maxWindowSamples bounds the FFT window in samples (131x the paper's
// 500), so a tiny -interval is a usage error rather than an allocation
// the machine cannot make.
const maxWindowSamples = 1 << 16

func main() {
	var (
		fps      = flag.String("fp", "5", "pulse frequencies to test, Hz, comma-separated")
		interval = flag.Duration("interval", 10*time.Millisecond, "sample interval of the input series")
		window   = flag.Duration("window", 5*time.Second, "FFT window")
		thresh   = flag.Float64("threshold", 2, "elasticity threshold")
	)
	flag.Parse()

	if err := checkDurations(*interval, *window); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkThreshold(*thresh); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	freqs, err := parseFreqs(*fps, *interval, *window)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := core.DetectorConfig{
		SampleInterval: sim.FromDuration(*interval),
		FFTDuration:    sim.FromDuration(*window),
		Threshold:      *thresh,
	}

	samples, err := readSamples(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	need := core.NewDetector(cfg).WindowSamples()
	if len(samples) < need {
		fmt.Fprintf(os.Stderr, "need %d samples for a full window, got %d\n", need, len(samples))
		os.Exit(1)
	}

	// Each frequency gets its own detector, fed the same series: η at
	// every full window in series order, then at the end of the series.
	for _, fp := range freqs {
		det := core.NewDetector(cfg)
		for n, s := range samples {
			det.AddSample(s)
			if det.Ready() && (n+1)%det.WindowSamples() == 0 {
				report(fp, det.Elasticity(fp), *thresh)
			}
		}
		report(fp, det.Elasticity(fp), *thresh)
	}
}

func report(fp, eta, thresh float64) {
	class := "INELASTIC"
	if eta >= thresh {
		class = "ELASTIC"
	}
	fmt.Printf("eta(fp=%.1fHz) = %.3f  threshold = %.1f  =>  %s\n", fp, eta, thresh, class)
}

// readSamples reads one value per line ("rate" or "t,rate"), skipping
// blank lines, '#' comments and, with a message, lines that are not a
// finite number.
func readSamples(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	var out []float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Accept "rate" or "t,rate".
		if i := strings.LastIndexByte(line, ','); i >= 0 {
			line = strings.TrimSpace(line[i+1:])
		}
		v, err := strconv.ParseFloat(line, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = errors.New("not a finite number")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
			continue
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

// checkDurations rejects a sample interval or FFT window that is not
// positive, and a window of more than maxWindowSamples samples, before
// any detector allocates one.
func checkDurations(interval, window time.Duration) error {
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"-interval", interval}, {"-window", window}} {
		if f.v <= 0 {
			return fmt.Errorf("%s must be > 0, got %v", f.name, f.v)
		}
	}
	if n := window / interval; n > maxWindowSamples {
		return fmt.Errorf("-window %v at a %v -interval is %d samples, over the bound of %d", window, interval, n, maxWindowSamples)
	}
	return nil
}

// checkThreshold rejects an η threshold that is not finite and positive:
// the detector would replace it with its default while the verdicts
// compared against the raw value.
func checkThreshold(v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("-threshold must be finite and > 0, got %v", v)
	}
	return nil
}

// parseFreqs parses -fp's comma-separated pulse frequencies. Each must be
// finite and positive, Eq. 3's band (fp, 2fp) must fit below the Nyquist
// frequency of samples taken every interval (2·fp <= 1/(2·interval)), and
// at least one bin of a window's transform must lie in the denominator
// band, else η reads its cap whatever the series.
func parseFreqs(s string, interval, window time.Duration) ([]float64, error) {
	nyquist := 1 / (2 * interval.Seconds())
	// core.NewDetector's window and transform size; core.newBand's bins.
	size := fft.NextPow2(max(int(window/interval), 8))
	res := 1 / sim.FromDuration(interval).Seconds() / float64(size)
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("-fp: bad frequency %q: %v", p, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-fp: frequency %q must be finite and > 0", p)
		}
		if 2*v > nyquist {
			return nil, fmt.Errorf("-fp: frequency %q: its band (fp, 2fp) must fit below the %g Hz Nyquist frequency of a %v interval", p, nyquist, interval)
		}
		if !denominatorHasBin(v, res, size/2+1) {
			return nil, fmt.Errorf("-fp: frequency %q: no bin of a %v -window (%.3g Hz apart) lies in its η denominator band; widen -window", p, window, res)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("-fp: no frequencies given")
	}
	return out, nil
}

// denominatorHasBin reports whether any of nbins bins res Hz apart
// passes core.newBand's denominator test for fp.
func denominatorHasBin(fp, res float64, nbins int) bool {
	for k := 0; k < nbins; k++ {
		if f := float64(k) * res; f > fp+2*res && f < 2*fp-res {
			return true
		}
	}
	return false
}
