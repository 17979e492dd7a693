package crosstraffic

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// Fluid cross traffic approximates an aggregate source as a
// piecewise-constant rate process applied to its route's links
// (Link.AddFluidRate) instead of a stream of packet events: one
// scheduler event per rate change, however high the rate. Three
// aggregate models cover the existing packet sources:
//
//   - cbr: a constant rate — zero recurring events.
//   - poisson: the rate is resampled every DT from the Poisson
//     arrival count of that interval, preserving the coarse-grained
//     variance the detector's FFT observes while erasing per-packet
//     jitter inside each interval.
//   - cubic / reno: an AIMD rate process ticked once per RTT — the
//     MM1-style approximation of an elastic flow group. Each tick reads
//     the route's dropped-fluid delta as its congestion signal, cutting
//     the rate by the scheme's beta (cubic 0.7, reno 0.5) on loss and
//     otherwise adding one MSS per RTT, so the aggregate self-congests
//     into the sawtooth an elastic source shows a detector.

// DefaultFluidDT is the resample interval stochastic fluid models use
// when the spec doesn't set one: coarse enough to amortize events,
// fine relative to the detector's multi-second FFT window.
const DefaultFluidDT = 10 * sim.Millisecond

// maxFluidDT bounds the resample interval: beyond one second the
// process is effectively CBR and the spec is almost certainly a typo.
const maxFluidDT = sim.Second

// FluidSpec is the parsed form of the -fluid flag / fluid_cross
// scenario field.
type FluidSpec struct {
	// Enabled gates the whole fluid path; the zero spec is "off".
	Enabled bool
	// DT is the rate-resample interval of stochastic models (poisson).
	// CBR ignores it; elastic models tick per RTT.
	DT sim.Time
}

// ParseFluidSpec parses a fluid spec string: "" , "off", and "none"
// disable the fluid path; "on" enables it with the default resample
// interval; "dt=5ms" enables it with that interval. Tokens are
// comma-separated for forward compatibility, though dt= is the only
// parameter today.
func ParseFluidSpec(s string) (FluidSpec, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "", "off", "none":
		return FluidSpec{}, nil
	}
	spec := FluidSpec{Enabled: true, DT: DefaultFluidDT}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "on":
			// The explicit default; composes with dt= in either order.
		case strings.HasPrefix(tok, "dt="):
			v := strings.TrimSuffix(strings.TrimPrefix(tok, "dt="), "ms")
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return FluidSpec{}, fmt.Errorf("crosstraffic: bad fluid dt %q (want dt=10ms)", tok)
			}
			dt := sim.FromSeconds(ms / 1000)
			if dt <= 0 || dt > maxFluidDT {
				return FluidSpec{}, fmt.Errorf("crosstraffic: fluid dt %q out of range (0, %v]", tok, maxFluidDT)
			}
			spec.DT = dt
		default:
			return FluidSpec{}, fmt.Errorf("crosstraffic: unknown fluid parameter %q (want on, off, or dt=10ms)", tok)
		}
	}
	return spec, nil
}

// String renders the canonical form ParseFluidSpec round-trips: "" when
// disabled, "on" at the default interval, "dt=<ms>ms" otherwise.
func (f FluidSpec) String() string {
	if !f.Enabled {
		return ""
	}
	if f.DT == DefaultFluidDT {
		return "on"
	}
	return "dt=" + strconv.FormatFloat(f.DT.Seconds()*1000, 'g', -1, 64) + "ms"
}

// Fluid is one aggregate background source modeled as a rate process on
// the forward links of a route. The links must have fluid enabled
// (Link.EnableFluid) before the source starts.
type Fluid struct {
	sch   *sim.Scheduler
	rng   *sim.Rand
	links []*netem.Link

	kind    string // "cbr", "poisson", "cubic", "reno"
	meanBps float64
	dt      sim.Time
	rtt     sim.Time
	size    int

	rate        float64 // currently applied rate
	running     bool
	gen         int
	tickFn      func(arg any)
	genArg      any
	lastDropped float64
	cooldown    int     // ticks left before another multiplicative decrease
	win         float64 // elastic models: window of in-flight bits

	// RateChanges counts applied rate transitions — the fluid path's
	// whole event footprint, reported by the fidelity family against
	// the packet path's per-packet event count.
	RateChanges uint64
}

// NewFluid returns a fluid aggregate of the given kind and mean rate on
// a route of the topology ("" = default). rtt paces elastic models (and
// approximates the aggregate's feedback delay); rng drives stochastic
// resampling and may be nil for cbr.
func NewFluid(net *netem.Topology, route string, kind string, rateBps float64, rtt sim.Time, spec FluidSpec, rng *sim.Rand) (*Fluid, error) {
	if !HasFluidModel(kind) {
		return nil, fmt.Errorf("crosstraffic: no fluid model for cross kind %q (want %s)", kind, KindNames(func(k Kind) bool { return k.Fluid }))
	}
	r := net.Route(route)
	if r == nil {
		return nil, fmt.Errorf("crosstraffic: no route %q in topology", route)
	}
	f := &Fluid{
		sch:     net.Sch,
		rng:     rng,
		kind:    kind,
		meanBps: rateBps,
		dt:      spec.DT,
		rtt:     rtt,
		size:    netem.DefaultMSS,
	}
	if f.dt <= 0 {
		f.dt = DefaultFluidDT
	}
	for _, h := range r.Fwd {
		f.links = append(f.links, h.Link)
	}
	f.tickFn = f.tick
	f.genArg = f.gen
	return f, nil
}

// Start begins the rate process at time at.
func (f *Fluid) Start(at sim.Time) {
	f.sch.AtFunc(at, func() {
		if f.running {
			return
		}
		f.running = true
		f.bumpGen()
		switch f.kind {
		case "cbr":
			// One transition for the whole run.
			f.setRate(f.meanBps)
		case "poisson":
			f.resample()
			f.scheduleTick(f.dt)
		default: // elastic AIMD window
			start := f.meanBps
			if start <= 0 {
				start = float64(f.size*8) / f.rtt.Seconds()
			}
			f.win = start * f.rtt.Seconds()
			f.lastDropped = f.droppedNow()
			f.setRate(start)
			f.scheduleTick(f.rtt)
		}
	})
}

// Stop halts the process, withdrawing the applied rate immediately.
func (f *Fluid) Stop() {
	f.running = false
	f.bumpGen()
	f.setRate(0)
}

func (f *Fluid) bumpGen() {
	f.gen++
	f.genArg = f.gen
}

func (f *Fluid) scheduleTick(after sim.Time) {
	f.sch.AfterArg(after, f.tickFn, f.genArg)
}

// tick is the pooled-event callback advancing the rate process one
// interval: resample (poisson) or AIMD-adjust (elastic), then schedule
// the next tick of the same generation.
func (f *Fluid) tick(arg any) {
	if arg.(int) != f.gen || !f.running {
		return
	}
	switch f.kind {
	case "poisson":
		f.resample()
		f.scheduleTick(f.dt)
	default:
		f.aimd()
		f.scheduleTick(f.rtt)
	}
}

// resample draws the next interval's rate from the Poisson arrival
// count of a DT window at the mean rate, so the applied process has the
// variance of the packet arrivals it replaces at the resample scale.
func (f *Fluid) resample() {
	lambda := f.meanBps * f.dt.Seconds() / float64(f.size*8)
	n := f.poissonDraw(lambda)
	f.setRate(n * float64(f.size*8) / f.dt.Seconds())
}

// poissonDraw samples a Poisson count: Knuth's product-of-uniforms for
// small means, the normal approximation beyond (exact enough at these
// scales and O(1) in the mean).
func (f *Fluid) poissonDraw(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		floor := math.Exp(-lambda)
		p := 1.0
		for i := 0; i < 256; i++ {
			p *= f.rng.Float64()
			if p < floor {
				return float64(i)
			}
		}
		return 256
	}
	n := f.rng.Normal(lambda, math.Sqrt(lambda))
	if n < 0 {
		return 0
	}
	return math.Round(n)
}

// aimd advances the elastic model one RTT. The state is a window of
// in-flight bits, not a rate: the applied arrival rate is
// win / (rtt + qdelay), so a growing queue throttles the aggregate
// within one tick — the fluid limit of ACK self-clocking, which is
// what makes a real elastic flow visibly respond to Nimbus's pulses
// at the pulse frequency. The window itself evolves by AIMD:
// multiplicative decrease (cubic 0.7, reno 0.5) when the route
// dropped fluid since the last tick, additive increase otherwise,
// with cubic's steeper post-cut regrowth approximated by a larger
// step. A one-tick cooldown after each cut makes a drop burst one
// loss event, as a window-based flow would register it.
func (f *Fluid) aimd() {
	dropped := f.droppedNow()
	mss := float64(f.size * 8)
	switch {
	case dropped > f.lastDropped && f.cooldown == 0:
		beta := 0.7 // cubic
		if f.kind == "reno" {
			beta = 0.5
		}
		f.win *= beta
		f.cooldown = 1
	default:
		if f.cooldown > 0 {
			f.cooldown--
		}
		step := mss
		if f.kind == "cubic" {
			step = 4 * mss
		}
		f.win += step
	}
	f.lastDropped = dropped
	if f.win < mss {
		f.win = mss
	}
	f.setRate(f.win / (f.rtt + f.routeQueueDelay()).Seconds())
}

// routeQueueDelay sums the route's current queueing delay — packet
// bytes plus standing fluid over each link's drain rate — the feedback
// signal the elastic window model self-clocks against.
func (f *Fluid) routeQueueDelay() sim.Time {
	var total sim.Time
	for _, l := range f.links {
		rate := l.Rate()
		if rate <= 0 {
			continue
		}
		bytes := float64(l.Q.BytesQueued()) + l.FluidBacklog()
		total += sim.FromSeconds(bytes * 8 / rate)
	}
	return total
}

// droppedNow sums the dropped-fluid bytes over the route's links — the
// aggregate's congestion signal.
func (f *Fluid) droppedNow() float64 {
	var total float64
	for _, l := range f.links {
		_, d := l.FluidStats()
		total += d
	}
	return total
}

// setRate applies a new aggregate rate to every route link as a delta,
// so several fluid terms (a topology's constant load, this source)
// compose on one link.
func (f *Fluid) setRate(bps float64) {
	if bps < 0 {
		bps = 0
	}
	if bps == f.rate {
		return
	}
	delta := bps - f.rate
	for _, l := range f.links {
		l.AddFluidRate(delta)
	}
	f.rate = bps
	f.RateChanges++
}
