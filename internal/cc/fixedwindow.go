package cc

import "nimbus/internal/transport"

// FixedWindow keeps a constant congestion window. It never adapts, yet it
// is ACK-clocked: its send rate tracks its receive rate one RTT later, so
// the elasticity detector classifies it elastic (Table 1, "Fixed window").
type FixedWindow struct {
	common
	cwndBytes int
}

// NewFixedWindow returns a controller with a fixed window of n packets.
func NewFixedWindow(packets int) *FixedWindow {
	return &FixedWindow{cwndBytes: packets}
}

// Init converts the packet count into bytes.
func (f *FixedWindow) Init(env *transport.Env) {
	f.init(env)
	f.cwndBytes = f.cwndBytes * env.MSS
}

// OnAck does nothing: the window is fixed.
func (f *FixedWindow) OnAck(a transport.AckInfo) { f.clock.See(a.RTT) }

// OnLoss does nothing.
func (f *FixedWindow) OnLoss(transport.LossInfo) {}

// Control returns the fixed window.
func (f *FixedWindow) Control() transport.Transmission {
	return transport.Transmission{CwndBytes: f.cwndBytes}
}
