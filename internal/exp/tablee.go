package exp

import (
	"fmt"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// TableE runs the §8.2 buffer/RTT/AQM robustness summary (App. E.2):
// Nimbus's classification accuracy across buffer sizes, propagation
// delays, and with PIE at the bottleneck. The cross traffic is Fig. 15's,
// at the flow's own RTT.
func TableE(seed int64, quick bool) Report {
	bufs := []float64{0.25, 0.5, 1, 2, 4}
	props := []sim.Time{25 * sim.Millisecond, 50 * sim.Millisecond, 75 * sim.Millisecond}
	mixes := []string{"elastic", "inelastic", "mix"}
	dur := 60 * sim.Second
	if quick {
		bufs = []float64{0.5, 2}
		props = []sim.Time{50 * sim.Millisecond}
		dur = 30 * sim.Second
	}
	type queue struct {
		label  string
		bufBDP float64
		net    NetConfig
	}
	var queues []queue
	for _, prop := range props {
		for _, b := range bufs {
			queues = append(queues, queue{"droptail", b, NetConfig{RTT: prop, Buffer: sim.Time(b * float64(prop)), AQM: "droptail"}})
		}
		// PIE at two target delays (0.25 and 1 BDP) over a deep (4 BDP)
		// physical buffer, 50 ms only.
		if prop == 50*sim.Millisecond {
			for _, target := range []float64{0.25, 1} {
				queues = append(queues, queue{fmt.Sprintf("pie-%.2g", target), 4, NetConfig{
					RTT: prop, Buffer: 4 * prop, AQM: "pie", PIETarget: sim.Time(target * float64(prop)),
				}})
			}
		}
	}
	t := Table{
		Title: "Table E (§8.2/App E.2): buffer, RTT and AQM robustness",
		Cols: []Col{
			{"mix", "%-10s", "%-10s"},
			{"buf BDP", "%8s", "%8.2f"},
			{"prop ms", "%8s", "%8.0f"},
			{"queue", "%10s", "%10s"},
			{"accuracy", "%9s", "%9.2f"},
		},
		Rows: grid([]int{len(mixes), len(queues)}, func(ix []int) []any {
			mix, q := mixes[ix[0]], queues[ix[1]]
			c := scoreCell{net: q.net}
			mu := 96e6 // the standard rig's link rate
			c.cross, c.elastic = mixCross(mix, q.net.RTT, []string{"reno"}, []string{"reno"}, 0.4*mu, 0.25*mu)
			return []any{mix, q.bufBDP, q.net.RTT.Millis(), q.label, c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy()}
		}),
	}
	return Report{
		Panels: []Table{t, meanPanel(t, "mean accuracy: %.2f\n")},
		Expect: ">=98% pure traffic, >=85% mixes; dips only at very shallow buffers / tight PIE targets",
	}
}
