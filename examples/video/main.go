// Video example: compete with a DASH video client (the Fig. 11
// workload). A 1080p client is application-limited (inelastic): Nimbus
// stays in delay mode and keeps the queue short. A 4K client wants more
// than its fair share (elastic): Nimbus switches to TCP-competitive mode
// and defends its throughput.
//
// Run with: go run ./examples/video
package main

import (
	"fmt"

	"nimbus/internal/cc"
	"nimbus/internal/crosstraffic"
	"nimbus/internal/exp"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

func main() {
	dur := 90 * sim.Second
	for _, quality := range []string{"1080p", "4k"} {
		r := exp.NewRig(exp.NetConfig{
			RateMbps: 48,
			RTT:      50 * sim.Millisecond,
			Buffer:   100 * sim.Millisecond,
			Seed:     7,
		})
		sch := exp.MustScheme("nimbus", r.MuBps)
		probe := r.AddFlow(sch, 50*sim.Millisecond, 0)

		ladder := crosstraffic.Ladder1080p
		if quality == "4k" {
			ladder = crosstraffic.Ladder4K
		}
		video := &crosstraffic.VideoClient{
			Net:    r.Net,
			Rng:    r.Rng.Split("video"),
			RTT:    50 * sim.Millisecond,
			Ladder: ladder,
			NewCC:  func() transport.Controller { return cc.NewCubic() },
		}
		video.Start(0)

		r.Sch.RunUntil(dur)

		qdMean, _ := probe.Delay.MeanQuantiles()
		fmt.Printf("%s video: nimbus %.1f Mbit/s (qdelay mean %.1f ms), video %.1f Mbit/s avg bitrate %.1f Mbit/s, rebuffers %d, final mode %s\n",
			quality,
			probe.MeanMbps(5*sim.Second, dur), qdMean,
			float64(video.Sender().DeliveredBytes)*8/dur.Seconds()/1e6,
			video.MeanBitrate()/1e6,
			video.Rebuffers,
			sch.Nimbus.Mode())
	}
	fmt.Println("\nexpected: delay mode + low delay vs 1080p; competitive mode + fair share vs 4K")
}
