package cc

import (
	"nimbus/internal/sim"
	"nimbus/internal/stats"
	"nimbus/internal/transport"
)

// BBR state machine states.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "STARTUP"
	case bbrDrain:
		return "DRAIN"
	case bbrProbeBW:
		return "PROBE_BW"
	default:
		return "PROBE_RTT"
	}
}

// BBR implements the BBRv1 state machine (Cardwell et al., ACM Queue
// 2016): it estimates the bottleneck bandwidth as a windowed max of the
// delivery rate and the propagation RTT as a windowed min, paces at
// gain-cycled multiples of the bandwidth estimate, and caps inflight at
// 2x the estimated BDP. The paper uses BBR both as a baseline protocol
// and as cross traffic whose elasticity depends on buffer size (Table 1,
// App. C): with deep buffers the 2xBDP cap makes BBR ACK-clocked
// (elastic); with shallow buffers it is rate-driven (inelastic).
type BBR struct {
	common
	state bbrState

	btlbw   *stats.WindowedMax // delivery rate, bits/s, over 10 RTT
	rtprop  *stats.WindowedMin // RTT, over 10 s
	rateEst *RateEstimator

	cycleIdx   int
	cycleStart sim.Time

	startupFullBW  float64
	startupFullCnt int
	lastRoundStart sim.Time

	probeRTTStart sim.Time
	lastProbeRTT  sim.Time

	pacingGain float64
	cwndGain   float64
}

var bbrCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBRv1 controller.
func NewBBR() *BBR { return &BBR{} }

// Init starts in STARTUP with gain 2/ln(2).
func (b *BBR) Init(env *transport.Env) {
	b.init(env)
	b.state = bbrStartup
	b.pacingGain = 2.885
	b.cwndGain = 2.885
	b.btlbw = stats.NewWindowedMax(int64(3 * sim.Second))
	b.rtprop = stats.NewWindowedMin(int64(10 * sim.Second))
	b.rateEst = NewRateEstimator(200 * sim.Millisecond)
}

func (b *BBR) bdpBytes(gain float64) float64 {
	bw := b.btlbw.Max()            // bits/s
	rt := sim.Time(b.rtprop.Min()) // ns
	if bw <= 0 || rt <= 0 {
		return 10 * b.mss * gain
	}
	return gain * bw / 8 * rt.Seconds()
}

// OnAck updates the filters and advances the state machine.
func (b *BBR) OnAck(a transport.AckInfo) {
	b.seeRTT(a.RTT)
	now := b.now()
	b.rtprop.Add(int64(now), float64(a.RTT))
	b.rateEst.Add(now, a.Delivered)
	if r := b.rateEst.RateBps(); r > 0 {
		// Don't let app-limited periods decay the estimate: windowed max.
		b.btlbw.Add(int64(now), r)
	}

	switch b.state {
	case bbrStartup:
		b.checkStartupDone(now)
	case bbrDrain:
		if float64(a.Inflight) <= b.bdpBytes(1) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		b.advanceCycle(now)
		b.maybeEnterProbeRTT(now)
	case bbrProbeRTT:
		if now-b.probeRTTStart > 200*sim.Millisecond {
			b.lastProbeRTT = now
			b.enterProbeBW(now)
		}
	}
}

func (b *BBR) checkStartupDone(now sim.Time) {
	rtt := b.srtt
	if rtt == 0 {
		return
	}
	if now-b.lastRoundStart < rtt {
		return
	}
	b.lastRoundStart = now
	bw := b.btlbw.Max()
	if bw > b.startupFullBW*1.25 {
		b.startupFullBW = bw
		b.startupFullCnt = 0
		return
	}
	b.startupFullCnt++
	if b.startupFullCnt >= 3 {
		b.state = bbrDrain
		b.pacingGain = 1 / 2.885
		b.cwndGain = 2.885
	}
}

func (b *BBR) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cwndGain = 2
	// Start at a random phase other than 0 (the 1.25 probe), per BBR.
	b.cycleIdx = 1 + b.env.Rand.Intn(7)
	b.cycleStart = now
	b.pacingGain = bbrCycleGains[b.cycleIdx]
}

func (b *BBR) advanceCycle(now sim.Time) {
	rt := sim.Time(b.rtprop.Min())
	if rt <= 0 {
		rt = b.srtt
	}
	if now-b.cycleStart < rt {
		return
	}
	b.cycleStart = now
	b.cycleIdx = (b.cycleIdx + 1) % 8
	b.pacingGain = bbrCycleGains[b.cycleIdx]
}

func (b *BBR) maybeEnterProbeRTT(now sim.Time) {
	if b.lastProbeRTT == 0 {
		b.lastProbeRTT = now
		return
	}
	if now-b.lastProbeRTT > 10*sim.Second {
		b.state = bbrProbeRTT
		b.probeRTTStart = now
		b.pacingGain = 1
	}
}

// OnLoss: BBRv1 ignores individual losses except timeouts.
func (b *BBR) OnLoss(l transport.LossInfo) {
	if l.Timeout {
		b.btlbw = stats.NewWindowedMax(int64(3 * sim.Second))
		b.startupFullBW = 0
		b.startupFullCnt = 0
		b.state = bbrStartup
		b.pacingGain = 2.885
		b.cwndGain = 2.885
	}
}

// Control paces at pacingGain * btlbw with a cwnd cap of cwndGain * BDP.
func (b *BBR) Control() transport.Transmission {
	bw := b.btlbw.Max()
	var pace float64
	if bw > 0 {
		pace = b.pacingGain * bw
	} else {
		// No estimate yet: pace the initial window over the RTT or a
		// default.
		rtt := b.srtt
		if rtt == 0 {
			rtt = 100 * sim.Millisecond
		}
		pace = 10 * b.mss * 8 / rtt.Seconds() * b.pacingGain
	}
	cwnd := b.bdpBytes(b.cwndGain)
	if b.state == bbrProbeRTT {
		cwnd = 4 * b.mss
	}
	if cwnd < 4*b.mss {
		cwnd = 4 * b.mss
	}
	return transport.Transmission{CwndBytes: int(cwnd), PaceBps: pace}
}
