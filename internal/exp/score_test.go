package exp

import (
	"fmt"
	"strings"
	"testing"

	"nimbus/internal/core"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
)

// TestFig08CopaModeScored: Copa's row of Fig. 8 carries the accuracy its
// tracker measured. (It used to be written from a defer, after the row
// had been copied out, and printed as 0.00.)
func TestFig08CopaModeScored(t *testing.T) {
	tab := fig08([]string{"copa"}, 1, 4*sim.Second).Panels[0]
	if acc := tab.Num(0, "mode-acc"); !(acc > 0) {
		t.Fatalf("copa: mode-acc = %v, want a scored mode", acc)
	}
}

// TestScoreModesWindow: for both kinds of scorer, nothing is scored
// before the warm-up and everything after it is, to within one 10 ms
// tick; a telemetry tap already on a Nimbus flow keeps firing beside the
// scorer; schemes without modes are not scored.
func TestScoreModesWindow(t *testing.T) {
	const warmup, end, tick = 2 * sim.Second, 5 * sim.Second, 10 * sim.Millisecond
	for _, scheme := range []string{"nimbus", "copa"} {
		r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Seed: 1})
		s := MustScheme(scheme, r.MuBps)
		r.AddFlow(s, 50*sim.Millisecond, 0)
		taps := 0
		if s.Nimbus != nil {
			s.Nimbus.OnTick = func(core.Telemetry) { taps++ }
		}
		acc := scoreModes(r, s, func(sim.Time) bool { return false }, warmup)
		r.Sch.RunUntil(warmup)
		if got := acc.TotalScored(); got != 0 {
			t.Errorf("%s: scored %v before the warm-up ended", scheme, got)
		}
		r.Sch.RunUntil(end)
		if got := acc.TotalScored(); got < end-warmup-tick || got > end-warmup {
			t.Errorf("%s: scored %v, want %v to within one tick", scheme, got, end-warmup)
		}
		if s.Nimbus != nil && taps == 0 {
			t.Errorf("%s: the flow's own OnTick tap stopped firing once the scorer was attached", scheme)
		}
	}
	r := NewRig(NetConfig{RateMbps: 48, RTT: 50 * sim.Millisecond, Seed: 1})
	if acc := scoreModes(r, MustScheme("cubic", r.MuBps), func(sim.Time) bool { return false }, warmup); acc != nil {
		t.Error("cubic has no modes to score")
	}
}

// TestMixCrossVocabulary: each mix name maps to its sources and ground
// truth, and an unknown one panics instead of running without cross
// traffic.
func TestMixCrossVocabulary(t *testing.T) {
	kinds := func(cross []crossSpec) string {
		s := ""
		for _, c := range cross {
			s += c.kind + ":" + c.label + " "
		}
		return s
	}
	for mix, want := range map[string]struct {
		kinds   string
		elastic bool
	}{
		"elastic":   {"reno:reno ", true},
		"inelastic": {"poisson: ", false},
		"mix":       {"reno:reno0 reno:reno1 poisson: ", true},
	} {
		cross, elastic := mixCross(mix, 50*sim.Millisecond, []string{"reno"}, []string{"reno0", "reno1"}, 40e6, 25e6)
		if kinds(cross) != want.kinds || elastic != want.elastic {
			t.Errorf("mixCross(%s) = %q elastic=%v, want %q elastic=%v", mix, kinds(cross), elastic, want.kinds, want.elastic)
		}
		r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Seed: 1})
		for _, c := range cross {
			r.addCross(c)
		}
		if attached := fmt.Sprintf(" %d flows", len(cross)); !strings.HasSuffix(r.Net.String(), attached) {
			t.Errorf("mixCross(%s): rig reports %q, want%s", mix, r.Net.String(), attached)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mix: want a panic")
		}
	}()
	mixCross("bursty", 50*sim.Millisecond, nil, nil, 0, 0)
}

// TestScoreCellBuildsThroughBuild: a figure's scoring cell is put
// together by scoreCell.build like every other cell, and that moved
// nothing — one Fig. 14 (left) cell under both schemes it scores and
// Table 1's shallow-buffer BBR cell keep the event count, accuracy and
// median η they had when run assembled its rig by hand (MustBuildScheme,
// AddFlow, addCross in a loop), captured at the last commit that did.
// TestRigEventOrderPinned and TestCrossTraceCellPinned hold the other
// callers of the builder.
func TestScoreCellBuildsThroughBuild(t *testing.T) {
	fig14Left := scoreCell{cross: []crossSpec{{kind: "poisson", rate: 0.5 * 96e6, rtt: 40 * sim.Millisecond}}}
	bbrShallow := scoreCell{
		net:   NetConfig{Buffer: 25 * sim.Millisecond},
		cross: []crossSpec{{kind: "bbr", label: "cross", rate: 48e6}},
	}
	for _, c := range []struct {
		name   string
		cell   scoreCell
		scheme string
		events uint64
		acc    float64
		median float64
	}{
		{"fig14-left/nimbus", fig14Left, "nimbus", 550171, 0.901, 0.8126524196941592},
		{"fig14-left/copa", fig14Left, "copa", 463080, 0.9960000000000001, 0},
		{"table1/bbr-shallow", bbrShallow, "nimbus-delay", 636718, 1, 1.1371446510309597},
	} {
		res := c.cell.run(spec.MustParse(c.scheme), 1, 20*sim.Second)
		median, _ := res.etaStats()
		if res.Rig.Sch.Executed != c.events || res.acc.Accuracy() != c.acc || median != c.median {
			t.Errorf("%s moved: events=%d accuracy=%v median eta=%v, want %d %v %v",
				c.name, res.Rig.Sch.Executed, res.acc.Accuracy(), median, c.events, c.acc, c.median)
		}
	}
}
