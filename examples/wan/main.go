// WAN example: a bulk Nimbus transfer sharing a 96 Mbit/s link with the
// heavy-tailed trace workload (the paper's CAIDA-derived cross traffic),
// compared against Cubic and Vegas on the same workload and seed. This
// is the Fig. 9 scenario as a library consumer would write it.
//
// Run with: go run ./examples/wan
package main

import (
	"fmt"

	"nimbus/internal/exp"
	"nimbus/internal/sim"
)

func main() {
	dur := 60 * sim.Second
	fmt.Printf("%-8s %10s %12s %12s %12s\n", "scheme", "Mbit/s", "median RTT", "p95 RTT", "p95 qdelay")
	for _, scheme := range []string{"nimbus", "cubic", "vegas"} {
		r := exp.NewRig(exp.NetConfig{
			RateMbps: 96,
			RTT:      50 * sim.Millisecond,
			Buffer:   100 * sim.Millisecond,
			Seed:     42,
		})
		sch := exp.MustScheme(scheme, r.MuBps)
		probe := r.AddFlow(sch, 50*sim.Millisecond, 0)
		probe.RecordRTT()
		if err := exp.AddCross(r, "trace", 0.5*r.MuBps, 50*sim.Millisecond); err != nil {
			panic(err)
		}
		r.Sch.RunUntil(dur)
		_, rtt := probe.RTTms.MeanQuantiles(0.5, 0.95)
		_, qd := probe.Delay.MeanQuantiles(0.95)
		fmt.Printf("%-8s %10.1f %9.0f ms %9.0f ms %9.0f ms\n",
			scheme, probe.MeanMbps(5*sim.Second, dur), rtt[0], rtt[1], qd[0])
	}
	fmt.Println("\nexpected: nimbus ~ cubic throughput at a much lower median RTT; vegas loses throughput")
}
