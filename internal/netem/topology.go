package netem

import (
	"fmt"

	"nimbus/internal/sim"
)

// Hop is one step of a route: a wire-delay segment crossed before
// entering the hop's link.
type Hop struct {
	Link  *Link
	Delay sim.Time

	line *sim.Line // the topology's line for Delay, set by AddRoute
}

// Route is a flow path through the topology: the ordered hops of the data
// direction and, separately, of the ACK direction. An empty Rev list is
// the paper's ideal reverse path (a pure propagation delay); a non-empty
// one sends ACK packets through those links' queues, so the reverse path
// can be congested.
type Route struct {
	Name string
	Fwd  []Hop
	Rev  []Hop
}

// Topology is a network of named nodes and directed links with per-flow
// routes. Each attached flow follows one route; its own one-way access
// propagation delays (AttachAsymOn's fwd and rev) come on top of the
// route's hop delays, so flows sharing a route can still have different base RTTs.
//
// The paper's Fig. 2 single-bottleneck network is the trivial topology:
// one link, one route, an ideal reverse path (see NewNetwork); every
// layer attaches to a *Topology, so it works on any topology unchanged.
//
// Hop forwarding is allocation-free: every wire delay is a sim.Line, one
// per distinct delay, looked up when a flow attaches or a route is added;
// packets and ACKs cross it through each link's prebound entry callback.
// The topology also owns a shared packet free list that senders and raw
// sources draw from and that delivery (including delivery for detached
// flows) and drops return packets to.
type Topology struct {
	Sch *sim.Scheduler
	// Link is the designated bottleneck hop: the µ link that oracles and
	// single-valued link metrics (utilization, drops) refer to.
	Link *Link

	links  []*Link
	routes map[string]*Route
	def    *Route
	lines  map[sim.Time]*sim.Line

	flows map[FlowID]*Attachment
	next  FlowID

	pktFree []*Packet
	// OrphanRecycled counts in-flight packets recycled at delivery because
	// their flow was detached (or its receiver cleared) — observable in
	// tests for the detach-leak regression.
	OrphanRecycled uint64
	// AckDrops counts ACK packets lost on congested reverse routes.
	// Reverse links carry cross traffic too, so their DroppedPackets
	// counter alone cannot say how many of the losses were ACKs.
	AckDrops uint64
}

// NewTopology returns an empty topology; add links and routes, then set
// Link to the bottleneck hop.
func NewTopology(sch *sim.Scheduler) *Topology {
	return &Topology{
		Sch:    sch,
		routes: make(map[string]*Route),
		flows:  make(map[FlowID]*Attachment),
		lines:  make(map[sim.Time]*sim.Line),
	}
}

// line returns the topology's delay line for d, creating it on first use.
// Everything crossing a wire of delay d shares it: pushes happen at
// non-decreasing times, so one line per delay keeps each one in order.
func (t *Topology) line(d sim.Time) *sim.Line {
	l, ok := t.lines[d]
	if !ok {
		l = t.Sch.NewLine(d)
		t.lines[d] = l
	}
	return l
}

// NewNetwork builds the paper's single-bottleneck network: one link, one
// route over it, an ideal reverse path.
func NewNetwork(sch *sim.Scheduler, link *Link) *Topology {
	t := NewTopology(sch)
	t.AddLink(link)
	t.AddRoute(&Route{Fwd: []Hop{{Link: link}}})
	t.Link = link
	return t
}

// AddLink registers a link as a hop of this topology, wiring its delivery
// and drop paths to the topology's forwarding logic.
func (t *Topology) AddLink(l *Link) {
	l.Deliver = t.advance
	l.OnDrop = t.drop
	l.enterFn = func(arg any) { l.Send(arg.(*Packet)) }
	t.links = append(t.links, l)
}

// AddRoute registers a route. The first route added with an empty name is
// the default route Attach uses.
func (t *Topology) AddRoute(r *Route) {
	if len(r.Fwd) == 0 {
		panic("netem: route " + r.Name + " has no forward hops")
	}
	for _, hops := range [][]Hop{r.Fwd, r.Rev} {
		for i := range hops {
			hops[i].line = t.line(hops[i].Delay)
		}
	}
	t.routes[r.Name] = r
	if r.Name == "" {
		t.def = r
	}
}

// Links returns the topology's links in registration order (the hop order
// presets and chain specs declare).
func (t *Topology) Links() []*Link { return t.links }

// Route returns the named route ("" is the default), or nil.
func (t *Topology) Route(name string) *Route {
	if name == "" {
		return t.def
	}
	return t.routes[name]
}

// GetPacket returns a packet from the shared free list (or a fresh one).
// Callers reset it with a composite literal before use.
func (t *Topology) GetPacket() *Packet {
	if n := len(t.pktFree); n > 0 {
		p := t.pktFree[n-1]
		t.pktFree[n-1] = nil
		t.pktFree = t.pktFree[:n-1]
		return p
	}
	return &Packet{}
}

// PutPacket returns a packet to the shared free list. The caller must be
// the packet's last holder.
func (t *Topology) PutPacket(p *Packet) {
	p.route = nil
	p.ackFn = nil
	p.ackArg = nil
	t.pktFree = append(t.pktFree, p)
}

// FreePackets returns the shared free list's size (tests).
func (t *Topology) FreePackets() int { return len(t.pktFree) }

// Flows returns the number of attached flows (tests).
func (t *Topology) Flows() int { return len(t.flows) }

// Attachment describes one flow's path through the topology. Its access
// delays are fixed when it attaches.
type Attachment struct {
	ID FlowID

	// Receive is called when a data packet of this flow exits its route.
	Receive func(p *Packet, now sim.Time)

	net   *Topology
	route *Route
	// The lines of the access wires: the forward access delay (sender to
	// first hop, plus the last hop to receiver wire) plus the first hop's
	// delay, and the reverse access delay (plus the first reverse hop's
	// delay on congested reverse paths).
	fwdLine, revLine *sim.Line
}

// AttachOn adds a flow on the named route ("" = default).
func (t *Topology) AttachOn(route string, rtt sim.Time) *Attachment {
	return t.AttachAsymOn(route, rtt/2, rtt-rtt/2)
}

// AttachAsymOn adds a flow on the named route with explicit one-way
// access delays. Unknown routes are a programming error and panic.
func (t *Topology) AttachAsymOn(route string, fwd, rev sim.Time) *Attachment {
	r := t.Route(route)
	if r == nil {
		panic(fmt.Sprintf("netem: no route %q in topology", route))
	}
	t.next++
	a := &Attachment{ID: t.next, net: t, route: r}
	a.fwdLine = t.line(fwd + r.Fwd[0].Delay)
	if len(r.Rev) == 0 {
		a.revLine = t.line(rev)
	} else {
		a.revLine = t.line(rev + r.Rev[0].Delay)
	}
	t.flows[a.ID] = a
	return a
}

// Detach removes the flow from its topology. Packets of the flow still
// in flight are recycled into the shared packet pool when they complete
// their route. Transports call it when they stop (transport.Sender.Stop).
func (a *Attachment) Detach() { delete(a.net.flows, a.ID) }

// GetPacket draws from the topology's shared packet pool.
func (a *Attachment) GetPacket() *Packet { return a.net.GetPacket() }

// PutPacket returns a delivered packet to the topology's shared pool.
func (a *Attachment) PutPacket(p *Packet) { a.net.PutPacket(p) }

// Send injects a data packet from the flow's sender: after the access
// propagation delay (plus the first hop's wire delay) it reaches the
// first hop's queue.
func (a *Attachment) Send(p *Packet) {
	p.Flow = a.ID
	p.SentAt = a.net.Sch.Now()
	p.QueueDelay = 0
	p.route = a.route
	p.hop = 0
	p.rev = false
	a.fwdLine.Push(a.route.Fwd[0].Link.enterFn, p)
}

// SendAckArg delivers fn(arg) across the flow's reverse path. On ideal
// reverse routes the argument crosses the reverse delay line on its own
// (the paper's uncongested-ACK model, allocation-free). On routes with
// reverse hops, the ACK state rides through those links' queues as an AckSize
// packet from the shared pool — queued, delayed, and possibly dropped
// like any other traffic; a dropped ACK packet simply never invokes fn
// (transports recover via dup-ACKs and RTOs). An arg that is itself a
// pool *Packet (a delivered data packet riding back as its own ACK) is
// returned to the pool with the ACK packet when that happens; otherwise
// fn is its last holder.
func (a *Attachment) SendAckArg(fn func(arg any), arg any) {
	r := a.route
	if len(r.Rev) == 0 {
		a.revLine.Push(fn, arg)
		return
	}
	p := a.net.GetPacket()
	*p = Packet{Flow: a.ID, Size: AckSize, Raw: true}
	p.SentAt = a.net.Sch.Now()
	p.route = r
	p.hop = 0
	p.rev = true
	p.ackFn = fn
	p.ackArg = arg
	a.revLine.Push(r.Rev[0].Link.enterFn, p)
}

// advance is every link's delivery callback: it moves the packet to its
// route's next hop, or completes the traversal — data packets are
// delivered to the flow's receiver, ACK packets invoke their callback at
// the sender. Inter-hop forwarding pushes the packet on the hop's delay
// line with the link's prebound entry callback, so multi-hop paths cost
// zero allocations per packet like the single-bottleneck fast path.
func (t *Topology) advance(p *Packet, now sim.Time) {
	if r := p.route; r != nil {
		hops := r.Fwd
		if p.rev {
			hops = r.Rev
		}
		if n := int(p.hop) + 1; n < len(hops) {
			p.hop = int16(n)
			h := &hops[n]
			h.line.Push(h.Link.enterFn, p)
			return
		}
	}
	if p.rev {
		fn, arg := p.ackFn, p.ackArg
		t.PutPacket(p)
		fn(arg)
		return
	}
	t.deliver(p, now)
}

func (t *Topology) deliver(p *Packet, now sim.Time) {
	a, ok := t.flows[p.Flow]
	if !ok || a.Receive == nil {
		// The flow was detached (or its receiver stopped): the packet's
		// journey ends here, so return it to the shared pool instead of
		// leaking it from the allocation-free path.
		t.OrphanRecycled++
		t.PutPacket(p)
		return
	}
	a.Receive(p, now)
}

func (t *Topology) drop(p *Packet, now sim.Time) {
	if p.rev {
		// A lost ACK: the callback never runs; transports recover. The
		// data packet it carried (SendAckArg) ends its journey here too.
		t.AckDrops++
		if data, ok := p.ackArg.(*Packet); ok {
			t.PutPacket(data)
		}
		t.PutPacket(p)
		return
	}
	// A dropped data packet ends its journey at the queue that refused
	// it, whoever sent it (a transport, a raw source, a detached flow).
	t.PutPacket(p)
}

// QueueDelayNow returns the current queueing delay implied by occupancy
// at the bottleneck link's current rate (0 during an outage, when no
// drain rate is defined).
func (t *Topology) QueueDelayNow() sim.Time {
	rate := t.Link.Rate()
	if rate <= 0 {
		return 0
	}
	bytes := float64(t.Link.Q.BytesQueued())
	if t.Link.FluidEnabled() {
		// The fluid backlog stands in front of arriving packets exactly
		// like queued bytes do.
		bytes += t.Link.FluidBacklog()
	}
	return sim.FromSeconds(bytes * 8 / rate)
}

// String describes the network configuration.
func (t *Topology) String() string {
	if len(t.links) > 1 {
		return fmt.Sprintf("bottleneck %.1f Mbit/s, %d hops, %d flows",
			t.Link.Rate()/1e6, len(t.links), len(t.flows))
	}
	return fmt.Sprintf("bottleneck %.1f Mbit/s, %d flows", t.Link.Rate()/1e6, len(t.flows))
}
