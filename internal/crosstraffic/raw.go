// Package crosstraffic holds the cross-traffic sources of the paper's
// evaluation that are not sessions of finite flows — inelastic raw
// sources (constant bit-rate and Poisson packet arrivals), fluid
// aggregates, DASH-style video clients — and the table naming every
// cross-traffic kind (Kinds). The heavy-tailed WAN workload standing in
// for the CAIDA trace is a workload.Generator (exp's cross kind "trace").
package crosstraffic

import (
	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// RawSource injects packets directly into the bottleneck without any
// transport: nothing acknowledges them and nothing adapts. It models the
// paper's inelastic traffic (CBR streams and Poisson arrivals at a mean
// rate). The rate can change over time via SetRate.
type RawSource struct {
	att *netem.Attachment
	sch *sim.Scheduler
	rng *sim.Rand

	rateBps float64
	poisson bool
	size    int

	running bool
	gen     int // invalidates scheduled arrivals after rate changes/stops
	seq     uint64

	// Hot-path reuse: one prebound arrival callback rides on pooled
	// scheduler events with the boxed generation as its argument (re-boxed
	// only when the generation changes), and delivered packets come back
	// through the attachment's receive hook into the topology's shared
	// packet pool — so steady-state injection allocates nothing.
	arriveFn func(arg any)
	genArg   any
}

// NewCBR returns a constant bit-rate source at rateBps on the default
// route.
func NewCBR(net *netem.Topology, rtt sim.Time, rateBps float64) *RawSource {
	return NewCBROn(net, "", rtt, rateBps)
}

// NewCBROn is NewCBR on a named route of the topology.
func NewCBROn(net *netem.Topology, route string, rtt sim.Time, rateBps float64) *RawSource {
	return newRaw(net, route, rtt, rateBps, false, nil)
}

// NewPoisson returns a source with Poisson packet arrivals at mean
// rateBps on the default route.
func NewPoisson(net *netem.Topology, rtt sim.Time, rateBps float64, rng *sim.Rand) *RawSource {
	return NewPoissonOn(net, "", rtt, rateBps, rng)
}

// NewPoissonOn is NewPoisson on a named route of the topology.
func NewPoissonOn(net *netem.Topology, route string, rtt sim.Time, rateBps float64, rng *sim.Rand) *RawSource {
	return newRaw(net, route, rtt, rateBps, true, rng)
}

func newRaw(net *netem.Topology, route string, rtt sim.Time, rateBps float64, poisson bool, rng *sim.Rand) *RawSource {
	att := net.AttachOn(route, rtt)
	r := &RawSource{
		att:     att,
		sch:     net.Sch,
		rng:     rng,
		rateBps: rateBps,
		poisson: poisson,
		size:    netem.DefaultMSS,
	}
	r.arriveFn = r.arrive
	r.genArg = r.gen
	// Raw packets generate no ACKs; the receive hook's only job is to
	// return them to the shared pool once the delivery taps have seen them.
	att.Receive = func(p *netem.Packet, now sim.Time) {
		att.PutPacket(p)
	}
	return r
}

// Start begins injection at time at.
func (r *RawSource) Start(at sim.Time) {
	r.sch.AtFunc(at, func() {
		if r.running {
			return
		}
		r.running = true
		r.bumpGen()
		r.scheduleNext()
	})
}

// Stop halts injection (takes effect immediately).
func (r *RawSource) Stop() {
	r.running = false
	r.bumpGen()
}

// SetRate changes the mean rate; 0 pauses the source.
func (r *RawSource) SetRate(bps float64) {
	r.rateBps = bps
	if r.running {
		r.bumpGen()
		r.scheduleNext()
	}
}

// bumpGen invalidates in-flight arrival events and re-boxes the generation
// argument (the only allocation on a rate change, never per packet).
func (r *RawSource) bumpGen() {
	r.gen++
	r.genArg = r.gen
}

// arrive is the pooled-event callback for one packet arrival: inject,
// then schedule the next arrival of the same generation.
func (r *RawSource) arrive(arg any) {
	if arg.(int) != r.gen || !r.running {
		return
	}
	r.seq++
	p := r.att.GetPacket()
	*p = netem.Packet{Seq: r.seq, Size: r.size, Raw: true}
	r.att.Send(p)
	r.scheduleNext()
}

func (r *RawSource) scheduleNext() {
	if !r.running || r.rateBps <= 0 {
		return
	}
	mean := sim.FromSeconds(float64(r.size*8) / r.rateBps)
	gap := mean
	if r.poisson {
		gap = r.rng.ExpTime(mean)
	}
	r.sch.AfterArg(gap, r.arriveFn, r.genArg)
}
