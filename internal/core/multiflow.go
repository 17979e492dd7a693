package core

import (
	"nimbus/internal/sim"
)

// This file implements the pulser/watcher coordination protocol of §6.
//
// One Nimbus flow (the pulser) pulses at fpc in competitive mode and fpd
// in delay mode. Watchers do not pulse; they infer the pulser's mode by
// comparing the FFT of their own receive rate at the two frequencies and
// follow it. There is no explicit communication: election is randomized
// (Eq. 5), and concurrent pulsers detect each other by observing more
// energy at the pulse frequency in the cross traffic than in their own
// receive rate.

// watcherSignal computes the watcher's decision metrics: the
// elasticity-style ratios at fpc and fpd over the receive-rate spectrum,
// each excluding the other frequency from its denominator band.
func (n *Nimbus) watcherSignal() (etaC, etaD float64) {
	etaC = n.rdet.ElasticityExcluding(n.cfg.FreqCompetitive, n.cfg.FreqDelay)
	etaD = n.rdet.ElasticityExcluding(n.cfg.FreqDelay, n.cfg.FreqCompetitive)
	return etaC, etaD
}

// multiFlowTick runs the §6 role state machine once per detector tick.
func (n *Nimbus) multiFlowTick(now sim.Time) {
	if !n.rdet.Ready() {
		return
	}
	thresh := n.det.Threshold()
	switch n.role {
	case RoleWatcher:
		etaC, etaD := n.watcherSignal()
		if etaC >= thresh || etaD >= thresh {
			// A pulser exists; adopt its mode.
			n.pulserSeen = now
			n.lastEta = etaC
			if etaD > etaC {
				n.lastEta = etaD
			}
			if etaC >= etaD {
				n.maybeSwitch(now, true)
			} else {
				n.maybeSwitch(now, false)
			}
			return
		}
		// No pulser detected: run the randomized election (Eq. 5),
		// but not while a recently-seen pulser's signal may simply
		// still be fading out of the FFT window (prevents churn).
		if n.pulserSeen != 0 && now-n.pulserSeen < n.det.Config().FFTDuration {
			return
		}
		mu := n.cfg.Mu.Mu()
		if mu <= 0 || n.lastR <= 0 {
			return
		}
		tickFrac := n.det.Config().SampleInterval.Seconds() / n.det.Config().FFTDuration.Seconds()
		p := n.cfg.Kappa * tickFrac * n.lastR / mu
		if n.env.Rand != nil && n.env.Rand.Float64() < p {
			n.role = RolePulser
			n.lastDemote = now
		}
	case RolePulser:
		// Normal elasticity detection on ẑ, at the current mode's
		// frequency, excluding the other frequency (another pulser's
		// legitimate signal must not masquerade as elastic response).
		if n.det.Ready() {
			other := n.cfg.FreqDelay
			if n.mode == ModeDelay {
				other = n.cfg.FreqCompetitive
			}
			n.lastEta = n.det.ElasticityExcluding(n.pulseFreq(), other)
			n.maybeSwitch(now, n.elasticDecision(n.lastEta))
		}
		// Multi-pulser detection: if the cross traffic has more energy
		// at fp than our own receive rate does, someone else is pulsing
		// too; back off to watcher with probability 1/2, at most once
		// per FFT window so both pulsers don't flap in lockstep. The
		// check only runs in delay mode: in competitive mode elastic
		// cross traffic legitimately responds at fp with an amplitude
		// comparable to the pulse, which would masquerade as a second
		// pulser and churn the pulser role.
		if n.mode != ModeDelay || now-n.lastDemote < n.det.Config().FFTDuration {
			return
		}
		n.lastDemote = now
		fp := n.pulseFreq()
		zPeak := n.det.PeakAround(fp)
		rPeak := n.rdet.PeakAround(fp)
		if zPeak > 1.5*rPeak && n.env.Rand != nil && n.env.Rand.Float64() < 0.5 {
			n.role = RoleWatcher
			n.pulserSeen = now // assume the other pulser persists
		}
	}
}
