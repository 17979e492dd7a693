// Multiflow example: three Nimbus flows share a bottleneck using the
// pulser/watcher protocol (§6). With no explicit coordination, exactly
// one flow pulses at a time; the others infer its mode from the FFT of
// their own receive rates and follow it. The flows share fairly and keep
// the queue short.
//
// Run with: go run ./examples/multiflow
package main

import (
	"fmt"

	"nimbus/internal/core"
	"nimbus/internal/exp"
	"nimbus/internal/sim"
)

func main() {
	r := exp.NewRig(exp.NetConfig{
		RateMbps: 96,
		RTT:      50 * sim.Millisecond,
		Buffer:   100 * sim.Millisecond,
		Seed:     3,
	})
	var flows []*core.Nimbus
	var probes []*exp.FlowProbe
	for i := 0; i < 3; i++ {
		s := exp.MustScheme("nimbus(multiflow=true)", r.MuBps)
		flows = append(flows, s.Nimbus)
		probes = append(probes, r.AddFlow(s, 50*sim.Millisecond, 0))
	}

	fmt.Printf("%6s %28s %22s %10s\n", "t(s)", "per-flow Mbit/s", "roles", "qdelay ms")
	var prev []uint64 = make([]uint64, 3)
	var report func()
	report = func() {
		now := r.Sch.Now()
		if now > 0 && int(now.Seconds())%5 == 0 {
			rates := ""
			roles := ""
			for i, p := range probes {
				rates += fmt.Sprintf(" %8.1f", float64(p.Sender.DeliveredBytes-prev[i])*8/5e6)
				prev[i] = p.Sender.DeliveredBytes
				roles += fmt.Sprintf(" %7s", flows[i].Role())
			}
			fmt.Printf("%6.0f %s %s %10.1f\n", now.Seconds(), rates, roles, r.Net.QueueDelayNow().Millis())
		}
		if now < 60*sim.Second {
			r.Sch.AfterFunc(sim.Second, report)
		}
	}
	r.Sch.AfterFunc(sim.Second, report)
	r.Sch.RunUntil(60 * sim.Second)
	fmt.Println("\nexpected: one pulser, two watchers; ~32 Mbit/s each; queue a few ms (delay mode)")
}
