package exp

import (
	"fmt"
	"strings"

	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// TableERow is one cell of the §8.2 buffer/RTT/AQM robustness summary
// (App. E.2): Nimbus's classification accuracy across buffer sizes,
// propagation delays, and with PIE at the bottleneck.
type TableERow struct {
	BufferBDP float64
	PropRTTms float64
	AQM       string
	Mix       string
	Accuracy  float64
}

// RunTableECell runs one configuration: the cross traffic is Fig. 15's,
// at the flow's own RTT.
func RunTableECell(bufBDP float64, prop sim.Time, aqm string, pieTargetBDP float64, mix string, seed int64, dur sim.Time) TableERow {
	c := scoreCell{net: NetConfig{RTT: prop, Buffer: sim.Time(bufBDP * float64(prop)), AQM: aqm}}
	label := aqm
	if label == "" {
		label = "droptail"
	}
	if aqm == "pie" {
		c.net.Buffer = sim.Time(4 * float64(prop)) // deep physical buffer
		c.net.PIETarget = sim.Time(pieTargetBDP * float64(prop))
		label = fmt.Sprintf("pie-%.2g", pieTargetBDP)
	}
	mu := 96e6 // the standard rig's link rate
	c.cross, c.elastic = mixCross(mix, prop, []string{"reno"}, []string{"reno"}, 0.4*mu, 0.25*mu)
	return TableERow{
		BufferBDP: bufBDP, PropRTTms: prop.Millis(), AQM: label, Mix: mix,
		Accuracy: c.run(spec.MustParse("nimbus"), seed, dur).acc.Accuracy(),
	}
}

// TableE runs the robustness grid.
func TableE(seed int64, quick bool) []TableERow {
	bufs := []float64{0.25, 0.5, 1, 2, 4}
	props := []sim.Time{25 * sim.Millisecond, 50 * sim.Millisecond, 75 * sim.Millisecond}
	mixes := []string{"elastic", "inelastic", "mix"}
	dur := 60 * sim.Second
	if quick {
		bufs = []float64{0.5, 2}
		props = []sim.Time{50 * sim.Millisecond}
		dur = 30 * sim.Second
	}
	type cell struct {
		buf          float64
		prop         sim.Time
		aqm          string
		pieTargetBDP float64
		mix          string
	}
	var cells []cell
	for _, mix := range mixes {
		for _, prop := range props {
			for _, b := range bufs {
				cells = append(cells, cell{b, prop, "droptail", 0, mix})
			}
			// PIE at two target delays (0.25 and 1 BDP), 50 ms only.
			if prop == 50*sim.Millisecond {
				cells = append(cells, cell{4, prop, "pie", 0.25, mix})
				cells = append(cells, cell{4, prop, "pie", 1, mix})
			}
		}
	}
	return mapCells(len(cells), func(i int) TableERow {
		c := cells[i]
		return RunTableECell(c.buf, c.prop, c.aqm, c.pieTargetBDP, c.mix, seed, dur)
	})
}

// FormatTableE renders the grid.
func FormatTableE(rows []TableERow) string {
	var b strings.Builder
	b.WriteString("Table E (§8.2/App E.2): buffer, RTT and AQM robustness\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %9s\n", "mix", "buf BDP", "prop ms", "queue", "accuracy")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.2f %8.0f %10s %9.2f\n", r.Mix, r.BufferBDP, r.PropRTTms, r.AQM, r.Accuracy)
		sum += r.Accuracy
	}
	fmt.Fprintf(&b, "mean accuracy: %.2f\n", sum/float64(len(rows)))
	b.WriteString("expected shape: >=98% pure traffic, >=85% mixes; dips only at very shallow buffers / tight PIE targets\n")
	return b.String()
}
