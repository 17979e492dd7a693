// Package transport implements the endpoint machinery the congestion
// control algorithms plug into: an in-order sender with per-packet ACKs,
// duplicate-ACK (SACK-like) loss detection, a retransmission timeout,
// window- and pacing-based transmission, and application sources
// (backlogged, finite flow, chunked). This is the substitute for the Linux
// TCP stack + CCP datapath used by the paper: it reproduces the property
// the elasticity detector relies on — ACK clocking, where changes in the
// receive rate are reflected in the send rate one RTT later.
package transport

import "nimbus/internal/sim"

// AckInfo is delivered to the controller for every acknowledged packet.
type AckInfo struct {
	Bytes     int
	SentAt    sim.Time // when the packet left the sender
	AckedAt   sim.Time // when the ACK reached the sender (now)
	RTT       sim.Time // AckedAt - SentAt
	Inflight  int      // bytes in flight after this ACK
	Delivered uint64   // cumulative bytes delivered to the receiver
}

// LossInfo is delivered to the controller for every packet declared lost.
type LossInfo struct {
	Now     sim.Time
	Timeout bool // true when declared by RTO rather than dup-ACKs
}

// Transmission tells the sender how it may transmit.
type Transmission struct {
	// CwndBytes caps bytes in flight. <= 0 means no window cap.
	CwndBytes int
	// PaceBps, when > 0, paces transmissions at this rate (bits/s).
	// When <= 0, transmission is purely ACK-clocked by the window.
	PaceBps float64
}

// Env gives a controller access to its environment.
type Env struct {
	Sch  *sim.Scheduler
	Rand *sim.Rand
	MSS  int
	// Sender is the transport endpoint the controller is attached to.
	Sender *Sender
}

// Controller is a congestion control algorithm.
type Controller interface {
	// Init is called once before any traffic is sent.
	Init(env *Env)
	// OnAck is called for every acknowledged packet.
	OnAck(a AckInfo)
	// OnLoss is called for every packet declared lost.
	OnLoss(l LossInfo)
	// Control returns the current transmission constraints. It is
	// consulted before every packet transmission.
	Control() Transmission
}
