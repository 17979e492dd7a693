package core

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// Mode is Nimbus's operating mode (§4.1).
type Mode int

// The two modes.
const (
	ModeDelay Mode = iota
	ModeCompetitive
)

func (m Mode) String() string {
	if m == ModeCompetitive {
		return "competitive"
	}
	return "delay"
}

// Role distinguishes the pulser from watchers in the multi-flow protocol
// (§6). Single Nimbus flows are always pulsers.
type Role int

// The roles.
const (
	RolePulser Role = iota
	RoleWatcher
)

func (r Role) String() string {
	if r == RoleWatcher {
		return "watcher"
	}
	return "pulser"
}

// WindowCC is the subset of congestion controllers Nimbus can run as a
// sub-algorithm: it must expose and accept a window so Nimbus can convert
// between windows and rates at mode switches.
type WindowCC interface {
	transport.Controller
	Cwnd() float64
	SetCwnd(float64)
}

// Config parameterizes a Nimbus flow.
type Config struct {
	// Mu supplies the bottleneck link rate (required). Use Oracle for
	// controlled experiments or NewMaxReceiveRate for estimation.
	Mu MuEstimator
	// PulseFraction is the pulse peak amplitude as a fraction of µ
	// (default 0.25).
	PulseFraction float64
	// FreqCompetitive (fpc) and FreqDelay (fpd) are the pulse
	// frequencies per mode. Defaults: 5 Hz and, when MultiFlow is set,
	// 6 Hz (otherwise delay mode also pulses at 5 Hz).
	FreqCompetitive float64
	FreqDelay       float64
	// Competitive is the TCP-competitive algorithm (default Cubic must
	// be supplied by the caller to avoid an import cycle; see package
	// nimbuscc).
	Competitive WindowCC
	// Delay, when non-nil, is used as the delay-control algorithm
	// (e.g. Vegas or Copa default mode); when nil, BasicDelay (Eq. 4,
	// DefaultBasicDelayConfig) is used.
	Delay WindowCC
	// MultiFlow enables the pulser/watcher protocol.
	MultiFlow bool
	// Kappa is the pulser-election constant of Eq. 5 (default 1).
	Kappa float64
	// ModeDwell is the minimum time between mode switches. The default
	// is the FFT duration: after a switch, the detector window still
	// spans the previous mode's dynamics, so re-deciding earlier acts
	// on stale evidence and causes flapping (and can latch the wrong
	// equilibrium against bistable cross traffic like deep-buffer BBR).
	ModeDwell sim.Time
	// StartMode is the initial mode (default ModeDelay).
	StartMode Mode
	// Pinned disables mode switching: the flow stays in StartMode. Used
	// for the paper's "delay-control without switching" baseline
	// (Fig. 1b) and for ablations.
	Pinned bool
}

// Nimbus implements transport.Controller: it transmits at the rate of the
// active sub-algorithm, modulates it with asymmetric sinusoidal pulses,
// estimates the cross-traffic rate ẑ every tick, and switches modes using
// the elasticity detector (§4).
type Nimbus struct {
	cfg Config
	env *transport.Env

	mode Mode
	role Role

	sampler RateSampler
	det     *Detector // FFT of ẑ
	rdet    *Detector // FFT of R (watchers; multi-pulser check)

	lastRTT sim.Time
	clock   transport.RTTClock

	lastS, lastR, lastZ float64
	haveRates           bool

	rateHist  *stats.Ring // base rate per tick, FFTDuration deep
	lpFilter  *stats.EWMA // watcher low-pass on the send rate (pole 1)
	lpFilter2 *stats.EWMA // second pole: steeper roll-off at the pulse band

	startup     bool
	currentRate float64
	lastSwitch  sim.Time
	votes       []bool // recent per-tick classifications (ring)
	voteIdx     int
	voteN       int

	lastDemote sim.Time
	pulserSeen sim.Time

	// Telemetry.
	lastEta      float64
	ModeSwitches int
	// OnTick, if set, is called every detector tick with the current
	// telemetry (experiments record time series through this).
	OnTick func(t Telemetry)
}

// Telemetry is a per-tick snapshot for experiments.
type Telemetry struct {
	Now      sim.Time
	Mode     Mode
	Eta      float64
	EtaReady bool
	Z        float64
	Rate     float64
}

// NewNimbus returns a Nimbus controller. cfg.Competitive and cfg.Mu are
// required.
func NewNimbus(cfg Config) *Nimbus {
	if cfg.Mu == nil {
		panic("core: Config.Mu is required")
	}
	if cfg.Competitive == nil {
		panic("core: Config.Competitive is required")
	}
	if cfg.PulseFraction == 0 {
		cfg.PulseFraction = 0.25
	}
	if cfg.FreqCompetitive == 0 {
		cfg.FreqCompetitive = 5
	}
	if cfg.FreqDelay == 0 {
		if cfg.MultiFlow {
			cfg.FreqDelay = 6
		} else {
			cfg.FreqDelay = cfg.FreqCompetitive
		}
	}
	if cfg.Kappa == 0 {
		// Eq. 5's tradeoff: smaller kappa means fewer concurrent
		// pulsers at the cost of slower election. 0.5 keeps the
		// expected election delay ~2 FFT windows while making
		// simultaneous elections rare.
		cfg.Kappa = 0.5
	}
	n := &Nimbus{
		cfg:  cfg,
		mode: cfg.StartMode,
		det:  NewDetector(DefaultDetectorConfig()),
	}
	if n.cfg.ModeDwell == 0 {
		n.cfg.ModeDwell = n.det.Config().FFTDuration
	}
	n.rdet = NewDetector(n.det.Config())
	n.rateHist = stats.NewRing(n.det.WindowSamples())
	return n
}

// Init starts the measurement tick.
func (n *Nimbus) Init(env *transport.Env) {
	n.env = env
	n.cfg.Competitive.Init(env)
	if n.cfg.Delay != nil {
		n.cfg.Delay.Init(env)
	}
	n.startup = true
	n.currentRate = 1e6
	n.role = RolePulser
	if n.cfg.MultiFlow {
		// New flows join as watchers and only become pulsers by
		// election (§6).
		n.role = RoleWatcher
	}
	fMin := n.cfg.FreqCompetitive
	if n.cfg.FreqDelay < fMin {
		fMin = n.cfg.FreqDelay
	}
	// The paper's watcher filter "cuts off all frequencies ... that
	// exceed min(fpc, fpd)". A single-pole EWMA only attenuates 3 dB at
	// its cutoff, which would let watchers echo the pulser's oscillation
	// back into the cross traffic and confuse the pulser's detector.
	// Two cascaded poles a factor 8 below the pulse band give ~36 dB of
	// suppression at fp while still tracking congestion on ~0.3 s
	// timescales.
	alpha := stats.AlphaForCutoff(fMin/8, n.det.Config().SampleInterval.Seconds())
	n.lpFilter = stats.NewEWMA(alpha)
	n.lpFilter2 = stats.NewEWMA(alpha)
	interval := n.det.Config().SampleInterval
	var tick func()
	tick = func() {
		n.tick()
		n.env.Sch.AfterFunc(interval, tick)
	}
	// AfterFunc rides on pooled timers: the 100 Hz measurement tick is
	// never cancelled, so it needs no handle and no per-tick allocation.
	n.env.Sch.AfterFunc(interval, tick)
}

// OnAck feeds measurements and the active sub-algorithm.
func (n *Nimbus) OnAck(a transport.AckInfo) {
	n.sampler.Add(a.SentAt, a.AckedAt, a.Bytes)
	n.lastRTT = a.RTT
	n.clock.See(a.RTT)
	if n.mode == ModeCompetitive {
		n.cfg.Competitive.OnAck(a)
	} else if n.cfg.Delay != nil {
		n.cfg.Delay.OnAck(a)
	}
}

// OnLoss feeds the active sub-algorithm and ends startup.
func (n *Nimbus) OnLoss(l transport.LossInfo) {
	n.startup = false
	if n.mode == ModeCompetitive {
		n.cfg.Competitive.OnLoss(l)
	} else if n.cfg.Delay != nil {
		n.cfg.Delay.OnLoss(l)
	}
}

// pulseFreq returns the frequency the flow pulses at in its current mode.
func (n *Nimbus) pulseFreq() float64 {
	if n.mode == ModeCompetitive {
		return n.cfg.FreqCompetitive
	}
	return n.cfg.FreqDelay
}

// tick runs every SampleInterval (10 ms): measure S/R, estimate ẑ, feed
// the detectors, run role and mode logic, and recompute the send rate.
func (n *Nimbus) tick() {
	now := n.env.Sch.Now()
	window := n.clock.SRTT()
	if window < 2*n.det.Config().SampleInterval {
		window = 2 * n.det.Config().SampleInterval
	}
	// Feed the µ estimator with R measured over a full pulse period
	// (not one RTT): sub-period R spikes from queue-drain bursts would
	// lock the windowed-max estimator above µ, and the resulting
	// phantom ẑ oscillates at the pulse frequency. Over a full period
	// the positive pulse half still probes the link (the queue is busy
	// at the peak) so µ is discovered, but the overshoot is bounded by
	// queue/period. This longer-window call must come first: the
	// sampler discards records older than the window it is asked for.
	period := sim.FromSeconds(1 / n.pulseFreq())
	if period < window {
		period = window
	}
	if _, rP, okP := n.sampler.Rates(now, period); okP {
		n.cfg.Mu.Observe(now, rP)
	}
	S, R, ok := n.sampler.Rates(now, window)
	if ok {
		mu := n.cfg.Mu.Mu()
		n.lastS, n.lastR = S, R
		n.lastZ = EstimateZ(mu, S, R)
		n.haveRates = true
	}
	// Keep the sample cadence fixed even when no fresh measurement is
	// available (e.g. app-limited gaps): repeat the last value.
	n.det.AddSample(n.lastZ)
	n.rdet.AddSample(n.lastR)

	if n.cfg.MultiFlow {
		n.multiFlowTick(now)
	} else if n.det.Ready() {
		n.lastEta = n.det.Elasticity(n.pulseFreq())
		n.maybeSwitch(now, n.elasticDecision(n.lastEta))
	}

	n.updateRate(now)
	n.rateHist.Push(n.baseRate())

	if n.OnTick != nil {
		n.OnTick(Telemetry{
			Now: now, Mode: n.mode,
			Eta: n.lastEta, EtaReady: n.det.Ready(),
			Z: n.lastZ, Rate: n.currentRate,
		})
	}
}

// elasticDecision applies the hard rule eta >= threshold with two
// robustness refinements over the raw Eq. 3 comparison:
//
//   - a minimum-signal guard: eta is a ratio of spectral magnitudes, so
//     with negligible cross traffic (mean ẑ under 5% of µ) it is pure
//     noise; with nothing to compete against, delay mode is correct;
//   - hysteresis: leaving competitive mode requires eta to drop below
//     3/4 of the threshold, so transient dips (e.g. a cross flow's loss
//     epoch) don't cause a 2x-FFT-duration round trip through the wrong
//     mode.
func (n *Nimbus) elasticDecision(eta float64) bool {
	thresh := n.det.Threshold()
	// eta is a ratio of spectral magnitudes: with negligible cross
	// traffic in the window it is pure noise, and with nothing to
	// compete against delay mode is the right answer regardless.
	mu := n.cfg.Mu.Mu()
	if mu > 0 && n.det.Mean() < 0.05*mu {
		return false
	}
	if n.mode == ModeCompetitive {
		thresh *= 0.75 // hysteresis: leaving competitive needs a clear drop
	}
	return eta >= thresh
}

// maybeSwitch applies the hard decision with two temporal guards: the
// dwell (no re-decision while the FFT window still spans the previous
// mode) and a majority vote over the last second of per-tick
// classifications (single-tick spikes in a noisy spectrum are not
// evidence, but a borderline mixed signal that is elastic 70% of the
// time still switches).
func (n *Nimbus) maybeSwitch(now sim.Time, elastic bool) {
	const voteWindow = 100 // ticks (1 s at the default 10 ms interval)
	if n.votes == nil {
		n.votes = make([]bool, voteWindow)
	}
	n.votes[n.voteIdx] = elastic
	n.voteIdx = (n.voteIdx + 1) % voteWindow
	if n.voteN < voteWindow {
		n.voteN++
	}
	if n.cfg.Pinned || now-n.lastSwitch < n.cfg.ModeDwell || n.voteN < voteWindow {
		return
	}
	yes := 0
	for _, v := range n.votes {
		if v {
			yes++
		}
	}
	frac := float64(yes) / float64(voteWindow)
	if n.mode == ModeDelay && frac >= 0.7 {
		n.switchToCompetitive(now)
	} else if n.mode == ModeCompetitive && frac <= 0.2 {
		// Leaving competitive mode against still-present elastic flows
		// costs throughput for a full detection period; demand a clear
		// inelastic consensus.
		n.switchToDelay(now)
	}
}

// switchToCompetitive resets the competitive window to the rate used at
// the start of the detection period (5 s ago), because the elastic cross
// traffic has been depressing the delay-mode rate while detection was in
// progress (§4.1).
func (n *Nimbus) switchToCompetitive(now sim.Time) {
	n.mode = ModeCompetitive
	n.lastSwitch = now
	n.voteN = 0
	n.ModeSwitches++
	n.startup = false
	rate := n.currentRate
	if n.rateHist.Full() {
		rate = n.rateHist.At(n.rateHist.Cap() - 1) // oldest: ~FFTDuration ago
	}
	n.cfg.Competitive.SetCwnd(rate / 8 * n.clock.RTT().Seconds())
	if n.env.Sender != nil {
		n.env.Sender.KickPacing()
	}
}

// switchToDelay hands the current rate to the delay algorithm.
func (n *Nimbus) switchToDelay(now sim.Time) {
	n.mode = ModeDelay
	n.lastSwitch = now
	n.voteN = 0
	n.ModeSwitches++
	if n.cfg.Delay != nil {
		n.cfg.Delay.SetCwnd(n.currentRate / 8 * n.clock.RTT().Seconds())
	}
}

// baseRate computes the un-pulsed rate dictated by the active algorithm.
func (n *Nimbus) baseRate() float64 {
	srtt := n.clock.RTT()
	if n.mode == ModeCompetitive {
		return n.cfg.Competitive.Cwnd() * 8 / srtt.Seconds()
	}
	if n.cfg.Delay != nil {
		return n.cfg.Delay.Cwnd() * 8 / srtt.Seconds()
	}
	// BasicDelay (Eq. 4), with a doubling startup until the queue target
	// is reached so the µ estimator has something to measure.
	mu := n.cfg.Mu.Mu()
	if n.startup {
		xmin := n.clock.Min()
		if n.haveRates && n.lastRTT > xmin+DefaultBasicDelayConfig().TargetDelay && xmin > 0 {
			n.startup = false
		} else {
			r := 2 * n.lastS
			if r < 1e6 {
				r = 1e6
			}
			if mu > 0 && r > mu {
				r = mu
				n.startup = false
			}
			return r
		}
	}
	if !n.haveRates || mu <= 0 {
		return n.currentRate
	}
	return BasicDelayRate(DefaultBasicDelayConfig(), mu, n.lastS, n.lastZ, n.lastRTT, n.clock.Min())
}

// updateRate recomputes the pulsed/filtered send rate.
func (n *Nimbus) updateRate(now sim.Time) {
	base := n.baseRate()
	mu := n.cfg.Mu.Mu()
	amp := n.cfg.PulseFraction * mu
	if n.role == RolePulser && amp > 0 && !n.startup {
		// The pulse must be the only pulse-band content in the send
		// rate: BasicDelay's -alpha*z term would otherwise chase the
		// z-estimator's own measurement artifacts at fp and resonate,
		// making smooth inelastic traffic look elastic. Low-pass the
		// base, then add the deliberate pulse.
		base = n.lpFilter2.Add(n.lpFilter.Add(base))
		p := Pulse{Freq: n.pulseFreq(), Amplitude: amp}
		floor := p.MinBaseRate()
		if base < floor {
			base = floor
		}
		n.currentRate = base + p.Offset(now)
	} else if n.role == RoleWatcher {
		// Watchers low-pass their rate so they do not echo the pulser's
		// oscillation back into the cross traffic (§6).
		n.currentRate = n.lpFilter2.Add(n.lpFilter.Add(base))
	} else {
		n.currentRate = base
	}
	min := 2 * float64(n.env.MSS) * 8 / 0.1 // 2 packets per 100 ms
	if n.currentRate < min {
		n.currentRate = min
	}
}

// Control paces at the pulsed rate with a generous window cap.
func (n *Nimbus) Control() transport.Transmission {
	cap := 2 * n.cfg.Mu.Mu() / 8 * n.clock.RTT().Seconds()
	if c := 2 * n.cfg.Competitive.Cwnd(); n.mode == ModeCompetitive && c > cap {
		cap = c
	}
	if cap < 8*float64(n.env.MSS) {
		cap = 8 * float64(n.env.MSS)
	}
	return transport.Transmission{CwndBytes: int(cap), PaceBps: n.currentRate}
}

// Mode returns the current operating mode.
func (n *Nimbus) Mode() Mode { return n.mode }

// Role returns pulser or watcher.
func (n *Nimbus) Role() Role { return n.role }

// LastEta returns the most recent elasticity value (0 until ready).
func (n *Nimbus) LastEta() float64 { return n.lastEta }

// Detector exposes the ẑ detector (diagnostics, Fig. 5).
func (n *Nimbus) Detector() *Detector { return n.det }

// ZEstimate returns the latest cross-traffic rate estimate in bits/s.
func (n *Nimbus) ZEstimate() float64 { return n.lastZ }

// Rates returns the latest (S, R) measurement in bits/s.
func (n *Nimbus) Rates() (S, R float64) { return n.lastS, n.lastR }
