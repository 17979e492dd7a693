// Quickstart: run one Nimbus flow against cross traffic that changes
// from elastic (a Cubic flow) to inelastic (a constant-bit-rate stream)
// and watch the elasticity detector switch modes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/core"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/netem"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

func main() {
	// 1. Build the network: a 48 Mbit/s bottleneck with 100 ms of
	// buffering (the Fig. 1 configuration).
	sch := sim.NewScheduler()
	rate := 48e6
	link := netem.NewLink(sch, rate, netem.NewDropTail(netem.BufferBytesForDelay(rate, 100*sim.Millisecond)))
	net := netem.NewNetwork(sch, link)
	rng := sim.NewRand(1)

	// 2. Build a Nimbus flow: Cubic in TCP-competitive mode, BasicDelay
	// in delay-control mode, oracle knowledge of the link rate.
	nimbus := core.NewNimbus(core.Config{
		Mu:          core.Oracle{Rate: rate},
		Competitive: cc.NewCubic(),
	})
	sender := transport.NewSender(net, 50*sim.Millisecond, nimbus, transport.Backlogged{}, rng)
	sender.Start(0)

	// 3. Cross traffic: a Cubic flow for 30-90 s, then 24 Mbit/s CBR
	// for 90-150 s.
	cubic := transport.NewSender(net, 50*sim.Millisecond, cc.NewCubic(), transport.Backlogged{}, rng.Split("cubic"))
	cubic.Start(30 * sim.Second)
	sch.AtFunc(90*sim.Second, cubic.Stop)
	cbr := crosstraffic.NewCBR(net, 40*sim.Millisecond, 24e6)
	cbr.Start(90 * sim.Second)

	// 4. Report once per second.
	fmt.Printf("%6s %12s %12s %8s %8s\n", "t(s)", "nimbus Mbps", "qdelay ms", "eta", "mode")
	var lastBytes uint64
	var report func()
	report = func() {
		now := sch.Now()
		mbps := float64(sender.DeliveredBytes-lastBytes) * 8 / 1e6
		lastBytes = sender.DeliveredBytes
		if now > 0 && int(now.Seconds())%5 == 0 {
			fmt.Printf("%6.0f %12.1f %12.1f %8.2f %8s\n",
				now.Seconds(), mbps, net.QueueDelayNow().Millis(),
				nimbus.LastEta(), nimbus.Mode())
		}
		if now < 150*sim.Second {
			sch.AfterFunc(sim.Second, report)
		}
	}
	sch.AfterFunc(sim.Second, report)

	sch.RunUntil(150 * sim.Second)
	fmt.Printf("\nmode switches: %d (expect: into competitive ~35s, back to delay ~95s)\n", nimbus.ModeSwitches)
}
