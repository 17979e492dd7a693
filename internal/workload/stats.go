package workload

import (
	"nimbus/internal/metrics"
	"nimbus/internal/sim"
	"nimbus/internal/stats"
)

// Stats accumulates per-flow measurements of a churn run online, so
// memory stays O(1) in flows × time: flow-completion times feed a
// Welford accumulator plus a reservoir sample (percentiles), per-flow
// rates feed an online Jain index, and the active-flow count is
// integrated over time rather than recorded as a series. A 10k-flow,
// minutes-long run costs the same memory as a 10-flow one.
type Stats struct {
	fctMs  stats.Welford          // flow completion time, ms
	fctRes *metrics.DelayRecorder // reservoir of FCTs for percentiles, ms
	rates  metrics.OnlineJain     // per-flow mean rate (bits/s) at completion

	started, completed, capped int
	bytes                      float64 // delivered by completed flows

	// Active-flow gauge, integrated over time.
	activeNow, maxActive int
	lastT                sim.Time
	activeArea           float64 // flow-seconds

	// Elastic ground-truth accounting (time with ≥1 elastic flow active).
	elasticNow   int
	elasticSince sim.Time
	elasticTime  sim.Time
}

// NewStats returns an empty accumulator; rng seeds the FCT reservoir.
func NewStats(rng *sim.Rand) *Stats {
	return &Stats{fctRes: metrics.NewDelayRecorder(0, rng)}
}

// Release returns the FCT reservoir's storage for reuse; percentiles read
// 0 afterwards, like those of a run with no completed flow.
func (st *Stats) Release() { st.fctRes.Release() }

func (st *Stats) tick(now sim.Time) {
	st.activeArea += float64(st.activeNow) * (now - st.lastT).Seconds()
	st.lastT = now
}

func (st *Stats) flowStarted(now sim.Time, elastic bool) {
	st.tick(now)
	st.started++
	st.activeNow++
	if st.activeNow > st.maxActive {
		st.maxActive = st.activeNow
	}
	if elastic {
		if st.elasticNow == 0 {
			st.elasticSince = now
		}
		st.elasticNow++
	}
}

func (st *Stats) flowCompleted(now sim.Time, size int, fct sim.Time, elastic bool) {
	st.tick(now)
	st.completed++
	st.activeNow--
	st.bytes += float64(size)
	st.fctMs.Add(fct.Millis())
	st.fctRes.Add(fct)
	if fct > 0 {
		st.rates.Add(float64(size) * 8 / fct.Seconds())
	}
	if elastic {
		st.elasticNow--
		if st.elasticNow == 0 {
			st.elasticTime += now - st.elasticSince
		}
	}
}

func (st *Stats) flowCapped() { st.capped++ }

// ElasticActive reports whether any active flow is in the elastic class
// (size above ElasticThresholdBytes) — the ground truth an elasticity
// detector's mode decision is scored against.
func (st *Stats) ElasticActive() bool { return st.elasticNow > 0 }

// Summary is the streaming statistics of a churn run, evaluated at the
// horizon.
type Summary struct {
	Started, Completed, Capped int
	// AggMbps is the load completed flows actually delivered over [0, end).
	AggMbps float64
	// MeanActive and MaxActive describe the concurrent-flow population
	// (MeanActive is time-weighted).
	MeanActive float64
	MaxActive  int
	// FCT statistics over completed flows, milliseconds; percentiles
	// come from the reservoir sample.
	FCTMeanMs, FCTP50Ms, FCTP95Ms float64
	// Jain is Jain's fairness index over per-flow mean rates
	// (size/FCT) at completion — fairness across the session population,
	// complementing the long-lived flows' share-based index.
	Jain float64
	// ElasticFrac is the fraction of [0, end) during which at least one
	// elastic flow was active (the detector's ground-truth positive rate).
	ElasticFrac float64
}

// Snapshot evaluates the accumulators at the horizon end.
func (st *Stats) Snapshot(end sim.Time) Summary {
	st.tick(end)
	sm := Summary{
		Started:   st.started,
		Completed: st.completed,
		Capped:    st.capped,
		MaxActive: st.maxActive,
		FCTMeanMs: st.fctMs.Mean(),
		Jain:      st.rates.Index(),
	}
	if end > 0 {
		sm.AggMbps = st.bytes * 8 / end.Seconds() / 1e6
		sm.MeanActive = st.activeArea / end.Seconds()
		et := st.elasticTime
		if st.elasticNow > 0 {
			et += end - st.elasticSince
		}
		sm.ElasticFrac = et.Seconds() / end.Seconds()
	}
	if st.fctRes.Len() > 0 {
		_, qs := st.fctRes.MeanQuantiles(0.5, 0.95)
		sm.FCTP50Ms, sm.FCTP95Ms = qs[0], qs[1]
	}
	return sm
}
