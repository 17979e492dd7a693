package netem

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/sim"
)

func TestRateScheduleValidation(t *testing.T) {
	cases := []struct {
		name   string
		points []RatePoint
		period sim.Time
	}{
		{"empty", nil, 0},
		{"first not at zero", []RatePoint{{sim.Millisecond, 1e6}}, 0},
		{"non-increasing", []RatePoint{{0, 1e6}, {sim.Millisecond, 2e6}, {sim.Millisecond, 3e6}}, 0},
		{"negative rate", []RatePoint{{0, -1}}, 0},
		{"period inside points", []RatePoint{{0, 1e6}, {10 * sim.Millisecond, 2e6}}, 10 * sim.Millisecond},
		{"negative period", []RatePoint{{0, 1e6}}, -sim.Second},
	}
	for _, c := range cases {
		if _, err := NewRateSchedule(c.points, c.period); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewRateSchedule([]RatePoint{{0, 1e6}, {sim.Second, 0}}, 2*sim.Second); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestRateAtAndNextChange(t *testing.T) {
	// Hold-last schedule.
	s, err := NewRateSchedule([]RatePoint{{0, 10e6}, {10 * sim.Millisecond, 5e6}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RateAt(0); got != 10e6 {
		t.Fatalf("RateAt(0) = %g", got)
	}
	if got := s.RateAt(10 * sim.Millisecond); got != 5e6 {
		t.Fatalf("RateAt(10ms) = %g", got)
	}
	if got := s.RateAt(sim.Second); got != 5e6 {
		t.Fatalf("hold-last RateAt(1s) = %g", got)
	}
	if next, ok := s.NextChange(0); !ok || next != 10*sim.Millisecond {
		t.Fatalf("NextChange(0) = %v, %v", next, ok)
	}
	if _, ok := s.NextChange(10 * sim.Millisecond); ok {
		t.Fatal("hold-last schedule should have no change after the last point")
	}

	// Periodic schedule: wraps and keeps changing forever.
	p, err := NewRateSchedule([]RatePoint{{0, 8e6}, {10 * sim.Millisecond, 2e6}}, 20*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RateAt(25 * sim.Millisecond); got != 8e6 {
		t.Fatalf("periodic RateAt(25ms) = %g", got)
	}
	if got := p.RateAt(35 * sim.Millisecond); got != 2e6 {
		t.Fatalf("periodic RateAt(35ms) = %g", got)
	}
	if next, ok := p.NextChange(10 * sim.Millisecond); !ok || next != 20*sim.Millisecond {
		t.Fatalf("NextChange(10ms) = %v, %v (want the wrap point)", next, ok)
	}
	if next, ok := p.NextChange(20 * sim.Millisecond); !ok || next != 30*sim.Millisecond {
		t.Fatalf("NextChange(20ms) = %v, %v", next, ok)
	}
	if _, ok := ConstantRate(5e6).NextChange(0); ok {
		t.Fatal("constant schedule reported a change")
	}
}

func TestBitsIntegral(t *testing.T) {
	s := SquareWave(2e6, 8e6, 20*sim.Millisecond)
	// One full period: 8 Mbit/s for 10 ms + 2 Mbit/s for 10 ms = 100000 bits.
	if got := s.Bits(0, 20*sim.Millisecond); math.Abs(got-100000) > 1e-6 {
		t.Fatalf("Bits(one period) = %g, want 100000", got)
	}
	// Misaligned window spanning a wrap: [15ms, 45ms) = 5ms low + 10ms
	// high + 10ms low + 5ms high = 10000+80000+20000+40000 = 150000.
	if got := s.Bits(15*sim.Millisecond, 45*sim.Millisecond); math.Abs(got-150000) > 1e-6 {
		t.Fatalf("Bits(wrap window) = %g, want 150000", got)
	}
	if got := s.MeanBps(0, 40*sim.Millisecond); math.Abs(got-5e6) > 1 {
		t.Fatalf("MeanBps = %g, want 5e6", got)
	}
	if got := s.MaxBps(); got != 8e6 {
		t.Fatalf("MaxBps = %g", got)
	}
}

func TestParsePattern(t *testing.T) {
	base := 48e6
	for spec, wantMax := range map[string]float64{
		"":                  48e6,
		"constant":          48e6,
		"step:6:24:2000":    24e6,
		"ramp:4:40:8000":    40e6,
		"outage:10000:3000": 48e6,
	} {
		s, err := ParsePattern(spec, base)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", spec, err)
		}
		if got := s.MaxBps(); got != wantMax {
			t.Fatalf("ParsePattern(%q).MaxBps = %g, want %g", spec, got, wantMax)
		}
	}
	s, _ := ParsePattern("outage:10000:3000", base)
	if got := s.RateAt(11 * sim.Second); got != 0 {
		t.Fatalf("outage not dark: %g", got)
	}
	if got := s.RateAt(14 * sim.Second); got != base {
		t.Fatalf("outage did not recover: %g", got)
	}
	// outage starting at 0 is a valid dark-then-recover schedule.
	s, err := ParsePattern("outage:0:2000", base)
	if err != nil {
		t.Fatalf("outage at t=0: %v", err)
	}
	if s.RateAt(0) != 0 || s.RateAt(3*sim.Second) != base {
		t.Fatalf("outage at t=0 wrong shape: %g, %g", s.RateAt(0), s.RateAt(3*sim.Second))
	}
	for _, bad := range []string{
		"wave:1:2:3", "step:1:2", "step:1:2:x", "step:1:2:0",
		"ramp:1:2:-5", "outage:-1:5", "outage:0:0",
		// Sign typos must be parse errors, not silent permanent outages.
		"step:6:-24:2000", "step:-6:24:2000", "ramp:-4:40:8000",
	} {
		if _, err := ParsePattern(bad, base); err == nil {
			t.Errorf("ParsePattern(%q): expected error", bad)
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	for name, text := range map[string]string{
		"empty":              "# nothing here\n",
		"missing comma":      "time_ms,mbps\n0 24\n",
		"bad time":           "x,24\n",
		"bad rate":           "0,fast\n",
		"negative time":      "-5,24\n",
		"negative rate":      "0,-24\n",
		"not starting at 0":  "5,24\n10,12\n",
		"non-increasing":     "0,24\n10,12\n10,6\n",
		"bad period":         "# period_ms: soon\n0,24\n",
		"period before last": "# period_ms: 5\n0,24\n10,12\n",
	} {
		if _, err := ParseTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestEmbeddedTraceCorpus(t *testing.T) {
	names := TraceNames()
	for _, want := range []string{"cell-ramp", "wifi-cafe", "outage"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("embedded corpus missing %q (have %v)", want, names)
		}
	}
	for _, n := range names {
		s, err := LoadTrace(n)
		if err != nil {
			t.Fatalf("LoadTrace(%s): %v", n, err)
		}
		if s.Constant() {
			t.Fatalf("embedded trace %s is constant", n)
		}
		if s.Period == 0 {
			t.Fatalf("embedded trace %s should loop", n)
		}
	}
}

func TestLoadTraceFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "custom.csv")
	if err := os.WriteFile(path, []byte("time_ms,mbps\n0,10\n500,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.RateAt(600*sim.Millisecond) != 2e6 {
		t.Fatalf("file trace rate wrong: %g", s.RateAt(600*sim.Millisecond))
	}
	if _, err := LoadTrace("no-such-trace"); err == nil {
		t.Fatal("expected error for unknown trace")
	}
}
