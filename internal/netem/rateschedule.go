package netem

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"nimbus/internal/sim"
)

// RatePoint is one step of a piecewise-constant rate schedule: from At
// onwards the link drains at Bps, until the next point (or forever).
type RatePoint struct {
	At  sim.Time
	Bps float64
}

// RateSchedule is a piecewise-constant bottleneck capacity signal. It is
// the packed form every time-varying link model reduces to: a constant
// link is a single point, a step pattern or periodic ramp is a short
// point list with a wrap period, and a Mahimahi-style trace is a long
// point list loaded from a "time_ms,mbps" file. Links evaluate it lazily
// (RateAt / NextChange), so schedules are immutable and shareable across
// concurrent simulations.
type RateSchedule struct {
	// Points is sorted by At; Points[0].At is always 0.
	Points []RatePoint
	// Period, when non-zero, wraps the schedule: the rate at time t is
	// the rate at t mod Period. Zero holds the last point's rate forever.
	Period sim.Time
}

// NewRateSchedule validates and builds a schedule. Points must be
// non-empty, start at time 0, be strictly increasing in time, and carry
// non-negative rates (zero models an outage). A non-zero period must
// extend strictly past the last point.
func NewRateSchedule(points []RatePoint, period sim.Time) (*RateSchedule, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("netem: rate schedule needs at least one point")
	}
	if points[0].At != 0 {
		return nil, fmt.Errorf("netem: rate schedule must start at time 0, got %v", points[0].At)
	}
	for i, p := range points {
		if p.Bps < 0 {
			return nil, fmt.Errorf("netem: negative rate %g bps at %v", p.Bps, p.At)
		}
		if i > 0 && p.At <= points[i-1].At {
			return nil, fmt.Errorf("netem: rate points must be strictly increasing in time (%v after %v)", p.At, points[i-1].At)
		}
	}
	if period < 0 {
		return nil, fmt.Errorf("netem: negative period %v", period)
	}
	if period > 0 && period <= points[len(points)-1].At {
		return nil, fmt.Errorf("netem: period %v must extend past the last point at %v", period, points[len(points)-1].At)
	}
	return &RateSchedule{Points: points, Period: period}, nil
}

// ConstantRate returns the schedule of a fixed-rate link.
func ConstantRate(bps float64) *RateSchedule {
	return &RateSchedule{Points: []RatePoint{{0, bps}}}
}

// SquareWave alternates between highBps (first half-period) and lowBps.
func SquareWave(lowBps, highBps float64, period sim.Time) *RateSchedule {
	return &RateSchedule{
		Points: []RatePoint{{0, highBps}, {period / 2, lowBps}},
		Period: period,
	}
}

// TriangleRamp ramps from minBps up to maxBps and back down every period,
// quantized into 2*steps piecewise-constant segments.
func TriangleRamp(minBps, maxBps float64, period sim.Time, steps int) *RateSchedule {
	if steps < 1 {
		steps = 1
	}
	n := 2 * steps
	points := make([]RatePoint, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(steps) // 0..2
		if frac > 1 {
			frac = 2 - frac
		}
		points = append(points, RatePoint{
			At:  period * sim.Time(i) / sim.Time(n),
			Bps: minBps + (maxBps-minBps)*frac,
		})
	}
	return &RateSchedule{Points: points, Period: period}
}

// OutageAt models a link at baseBps that goes dark at `at` for `dur`,
// then recovers and holds baseBps forever.
func OutageAt(baseBps float64, at, dur sim.Time) *RateSchedule {
	if at == 0 {
		return &RateSchedule{Points: []RatePoint{{0, 0}, {dur, baseBps}}}
	}
	return &RateSchedule{Points: []RatePoint{{0, baseBps}, {at, 0}, {at + dur, baseBps}}}
}

// Constant reports whether the schedule never changes rate.
func (s *RateSchedule) Constant() bool { return len(s.Points) <= 1 }

// RateAt returns the capacity in bits/s at simulated time t.
func (s *RateSchedule) RateAt(t sim.Time) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	if s.Period > 0 {
		t %= s.Period
	}
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].At > t }) - 1
	if i < 0 {
		i = 0
	}
	return s.Points[i].Bps
}

// NextChange returns the first time strictly after t at which the rate
// may change, and false when the schedule is constant from t onwards.
// Binary search keeps transition events O(log P) on long trace files.
func (s *RateSchedule) NextChange(t sim.Time) (sim.Time, bool) {
	if s.Constant() {
		return 0, false
	}
	if s.Period == 0 {
		i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].At > t })
		if i == len(s.Points) {
			return 0, false
		}
		return s.Points[i].At, true
	}
	base := t - t%s.Period
	pos := t - base
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].At > pos })
	if i == len(s.Points) {
		return base + s.Period, true
	}
	return base + s.Points[i].At, true
}

// Bits integrates the schedule over [from, to): the number of bits a
// fully-backlogged link would serialize in that window. Experiments and
// tests use it as the ground truth for delivered bytes.
func (s *RateSchedule) Bits(from, to sim.Time) float64 {
	total := 0.0
	for t := from; t < to; {
		seg := to
		if next, ok := s.NextChange(t); ok && next < to {
			seg = next
		}
		total += s.RateAt(t) * (seg - t).Seconds()
		t = seg
	}
	return total
}

// MeanBps returns the schedule's average capacity over [from, to).
func (s *RateSchedule) MeanBps(from, to sim.Time) float64 {
	if to <= from {
		return s.RateAt(from)
	}
	return s.Bits(from, to) / (to - from).Seconds()
}

// MaxBps returns the schedule's peak capacity.
func (s *RateSchedule) MaxBps() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Bps > max {
			max = p.Bps
		}
	}
	return max
}

// MinBps returns the schedule's lowest capacity (0 if it has outages).
func (s *RateSchedule) MinBps() float64 {
	min := s.Points[0].Bps
	for _, p := range s.Points {
		if p.Bps < min {
			min = p.Bps
		}
	}
	return min
}

// Span returns the time covered by the point list (the period for
// wrapping schedules, the last point's time for hold-last ones).
func (s *RateSchedule) Span() sim.Time {
	if s.Period > 0 {
		return s.Period
	}
	return s.Points[len(s.Points)-1].At
}

// ParsePattern builds a schedule from a compact spec string, the form the
// CLIs sweep over. baseBps anchors specs that are relative to the
// scenario's nominal link rate. Recognized forms (times in ms, rates in
// Mbit/s, fields separated by ':'):
//
//	constant                 — fixed at baseBps (same as the empty spec)
//	step:LO:HI:PERIOD        — square wave between LO and HI Mbit/s
//	ramp:MIN:MAX:PERIOD      — triangle ramp between MIN and MAX Mbit/s
//	outage:AT:DUR            — baseBps with an outage at AT for DUR ms
func ParsePattern(spec string, baseBps float64) (*RateSchedule, error) {
	if spec == "" || spec == "constant" {
		return ConstantRate(baseBps), nil
	}
	fields := strings.Split(spec, ":")
	args := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("netem: rate pattern %q: bad number %q", spec, f)
		}
		args = append(args, v)
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("netem: rate pattern %q: want %d args, got %d", spec, n, len(args))
		}
		return nil
	}
	var s *RateSchedule
	switch fields[0] {
	case "step":
		if err := need(3); err != nil {
			return nil, err
		}
		if args[2] <= 0 {
			return nil, fmt.Errorf("netem: rate pattern %q: period must be positive", spec)
		}
		s = SquareWave(args[0]*1e6, args[1]*1e6, sim.FromSeconds(args[2]/1e3))
	case "ramp":
		if err := need(3); err != nil {
			return nil, err
		}
		if args[2] <= 0 {
			return nil, fmt.Errorf("netem: rate pattern %q: period must be positive", spec)
		}
		s = TriangleRamp(args[0]*1e6, args[1]*1e6, sim.FromSeconds(args[2]/1e3), 8)
	case "outage":
		if err := need(2); err != nil {
			return nil, err
		}
		if args[0] < 0 || args[1] <= 0 {
			return nil, fmt.Errorf("netem: rate pattern %q: outage needs at>=0 and dur>0", spec)
		}
		s = OutageAt(baseBps, sim.FromSeconds(args[0]/1e3), sim.FromSeconds(args[1]/1e3))
	default:
		return nil, fmt.Errorf("netem: unknown rate pattern kind %q (want step, ramp, outage, constant)", fields[0])
	}
	// Constructors trust their arguments; spec strings don't earn that
	// trust. Re-validate so a sign typo (step:6:-24:2000) is a parse
	// error, not a silent permanent outage.
	if _, err := NewRateSchedule(s.Points, s.Period); err != nil {
		return nil, fmt.Errorf("rate pattern %q: %w", spec, err)
	}
	return s, nil
}

// ParseTrace reads a capacity trace in the repository's trace format:
// one "time_ms,mbps" pair per line, '#' comments, an optional literal
// "time_ms,mbps" header, and an optional "# period_ms: N" directive that
// makes the schedule wrap (loop) every N milliseconds instead of holding
// the last rate.
func ParseTrace(r io.Reader) (*RateSchedule, error) {
	var points []RatePoint
	var period sim.Time
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line[1:]), "period_ms:"); ok {
				ms, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil || ms <= 0 {
					return nil, fmt.Errorf("netem: trace line %d: bad period_ms directive %q", lineno, line)
				}
				period = sim.FromSeconds(ms / 1e3)
			}
			continue
		}
		if line == "time_ms,mbps" {
			continue
		}
		t, rate, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("netem: trace line %d: want \"time_ms,mbps\", got %q", lineno, line)
		}
		ms, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
		if err != nil {
			return nil, fmt.Errorf("netem: trace line %d: bad time %q", lineno, t)
		}
		mbps, err := strconv.ParseFloat(strings.TrimSpace(rate), 64)
		if err != nil {
			return nil, fmt.Errorf("netem: trace line %d: bad rate %q", lineno, rate)
		}
		if ms < 0 {
			return nil, fmt.Errorf("netem: trace line %d: negative time %g", lineno, ms)
		}
		points = append(points, RatePoint{At: sim.FromSeconds(ms / 1e3), Bps: mbps * 1e6})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netem: reading trace: %w", err)
	}
	return NewRateSchedule(points, period)
}
