package cc

import (
	"math"

	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Vivace implements PCC-Vivace (Dong et al., NSDI 2018) closely enough to
// reproduce the paper's findings: a rate-based online-learning scheme
// that maximizes u(x) = x^0.9 - b*x*d(RTT)/dt - c*x*L over monitor
// intervals. Because it adjusts its rate only at monitor-interval
// granularity (not per-ACK), it is *not* ACK-clocked: the elasticity
// detector classifies it inelastic at fp=5 Hz and elastic at fp=2 Hz
// (Table 1, App. F).
type Vivace struct {
	common
	rate float64 // bits/s

	// Utility coefficients (Vivace-latency defaults).
	exponent  float64
	latCoeff  float64
	lossCoeff float64

	miStart  sim.Time
	miRate   float64 // sending rate in force during the MI
	miLosses int
	miAcks   int
	rttFirst sim.Time
	rttLast  sim.Time

	phase      int // 0: slow start; 1,2: gradient trial pair; 3: move
	epsilon    float64
	baseRate   float64
	utilities  [2]float64
	prevUtil   float64
	theta      float64
	sameDirCnt int
	lastDir    int
}

// NewVivace returns a PCC-Vivace controller.
func NewVivace() *Vivace {
	return &Vivace{exponent: 0.9, latCoeff: 900, lossCoeff: 11.35, epsilon: 0.05}
}

// Init starts in the doubling phase at ~1 Mbit/s.
func (v *Vivace) Init(env *transport.Env) {
	v.init(env)
	v.rate = 1e6
	v.theta = 1e6
}

func (v *Vivace) utility(rateBps float64, rttGrad float64, lossRate float64) float64 {
	x := rateBps / 1e6 // Mbit/s scale, as in the PCC papers
	u := math.Pow(x, v.exponent)
	u -= v.latCoeff * x * math.Max(0, rttGrad)
	u -= v.lossCoeff * x * lossRate
	return u
}

// OnAck accumulates monitor-interval statistics and steps the learner at
// MI boundaries.
func (v *Vivace) OnAck(a transport.AckInfo) {
	v.seeRTT(a.RTT)
	now := v.now()
	if v.miStart == 0 {
		v.beginMI(now, a)
		return
	}
	v.miAcks++
	v.rttLast = a.RTT
	mi := v.srtt
	if mi < 10*sim.Millisecond {
		mi = 10 * sim.Millisecond
	}
	if now-v.miStart >= mi && v.miAcks >= 2 {
		v.endMI(now)
		v.beginMI(now, a)
	}
}

func (v *Vivace) beginMI(now sim.Time, a transport.AckInfo) {
	v.miStart = now
	v.miRate = v.rate
	v.miLosses = 0
	v.miAcks = 0
	v.rttFirst = a.RTT
	v.rttLast = a.RTT
}

func (v *Vivace) endMI(now sim.Time) {
	dur := (now - v.miStart).Seconds()
	if dur <= 0 {
		return
	}
	totalPkts := float64(v.miAcks + v.miLosses)
	lossRate := 0.0
	if totalPkts > 0 {
		lossRate = float64(v.miLosses) / totalPkts
	}
	rttGrad := (v.rttLast - v.rttFirst).Seconds() / dur
	// Per the PCC papers the utility is a function of the *sending* rate
	// of the MI (the delivered rate lags by an RTT, which is a full MI
	// here and would invert the gradient), penalized by the loss rate
	// and RTT gradient observed during the MI.
	u := v.utility(v.miRate, rttGrad, lossRate)

	switch v.phase {
	case 0: // slow start: double until utility drops
		if v.prevUtil != 0 && u < v.prevUtil {
			v.phase = 1
			v.baseRate = v.rate / 2
			v.rate = v.baseRate * (1 + v.epsilon)
		} else {
			v.prevUtil = u
			v.rate *= 2
		}
	case 1: // first trial (rate*(1+eps)) just finished
		v.utilities[0] = u
		v.phase = 2
		v.rate = v.baseRate * (1 - v.epsilon)
	case 2: // second trial finished: take a gradient step
		v.utilities[1] = u
		grad := (v.utilities[0] - v.utilities[1]) / (2 * v.epsilon * v.baseRate / 1e6)
		dir := 1
		if grad < 0 {
			dir = -1
		}
		if dir == v.lastDir {
			v.sameDirCnt++
		} else {
			v.sameDirCnt = 0
			v.theta = 1e6
		}
		v.lastDir = dir
		amp := 1.0 + 0.5*float64(v.sameDirCnt) // confidence amplifier
		step := v.theta * amp * math.Abs(grad)
		// Dynamic change boundary: at most 30% per decision.
		maxStep := 0.3 * v.baseRate
		if step > maxStep {
			step = maxStep
		}
		if step < 0.01*v.baseRate {
			step = 0.01 * v.baseRate
		}
		v.baseRate += float64(dir) * step
		if v.baseRate < 0.5e6 {
			v.baseRate = 0.5e6
		}
		v.phase = 1
		v.rate = v.baseRate * (1 + v.epsilon)
	}
}

// OnLoss counts losses for the MI utility; Vivace has no immediate
// backoff (that is the point: it reacts at MI timescales).
func (v *Vivace) OnLoss(l transport.LossInfo) {
	v.miLosses++
	if l.Timeout {
		v.rate /= 2
		v.baseRate = v.rate
		if v.rate < 0.5e6 {
			v.rate = 0.5e6
		}
	}
}

// Control paces at the learned rate with a generous window cap.
func (v *Vivace) Control() transport.Transmission {
	rtt := v.srtt
	if rtt == 0 {
		rtt = 100 * sim.Millisecond
	}
	cwnd := 4 * v.rate / 8 * rtt.Seconds()
	if cwnd < 4*v.mss {
		cwnd = 4 * v.mss
	}
	return transport.Transmission{CwndBytes: int(cwnd), PaceBps: v.rate}
}
