package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nimbus/internal/core"
	"nimbus/internal/netem"
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

// TestFigureCellsPinned: the hand-scripted figures describe a scoreCell
// and build it like every other cell, and that moved nothing — a few
// quick cells keep, bit for bit, the numbers they had when each figure
// put its rig together by hand (NewRig, AddFlow, a typed cross
// constructor per source), captured at the last commit that did. Fig. 17
// has a windowed CBR and three windowed Cubic flows, each with its own
// stop event (one shared stop event then); the A-deep path builds its
// flow through AddFlowSpecs now; fig08's script adds Cubic flows through
// addCross at run time. check_reports.sh holds every report.
func TestFigureCellsPinned(t *testing.T) {
	fig17 := Fig17(1, true).Panels[0]
	pathMbps, pathRTT := runPath(Paths25()[0], "nimbus", 1, 30*sim.Second)
	rev := topoRevCongested("nimbus", 1, 20*sim.Second)
	video := runFig11("4k", "cubic", 1, 60*sim.Second)
	fig08 := runFig08("nimbus", 1, 12*sim.Second)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"fig17 elastic agg Mbit/s", fig17.Num(0, "elastic agg Mbit/s"), 53.65690909090909},
		{"fig17 inelastic agg Mbit/s", fig17.Num(0, "inelastic agg Mbit/s"), 90.50345454545455},
		{"A-deep/nimbus Mbit/s", pathMbps, 13.8696},
		{"A-deep/nimbus mean RTT ms", pathRTT, 86.53216219560264},
		{"rev-congested/nimbus ackDrops", float64(rev[5].(uint64)), 120},
		{"fig11 4k/cubic video Mbit/s", video[4].(float64), 12.561733333333335},
		{"fig08 nimbus Mbit/s", fig08[1].(float64), 44.013902912621354},
		{"fig08 nimbus delay ms", fig08[2].(float64), 26.25676083555486},
		{"fig08 nimbus fair-err", fig08[3].(float64), 0.39500972222222225},
		{"fig08 nimbus mode-acc", fig08[4].(float64), 0.6759183673469388},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s moved: %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestCrossWindow: a cross source described over [start, stop) delivers
// nothing before start and nothing after stop plus one RTT (the rig's
// 20 ms buffer drains within it), and with stop 0 it runs to the
// horizon — for every kind addCross starts, each handed back as its
// constructor returned it. A trace generator's stop ends its arrivals and
// lets running flows finish, so for it the check is that no flow sends
// its first packet after stop plus one RTT.
func TestCrossWindow(t *testing.T) {
	const start, stop, end = 2 * sim.Second, 6 * sim.Second, 10 * sim.Second
	for _, c := range []struct {
		kind, fluid, typ string
		rate             float64
	}{
		{"reno", "", "*transport.Sender", 0},
		{"poisson", "", "*crosstraffic.RawSource", 24e6},
		{"cbr", "", "*crosstraffic.RawSource", 24e6},
		{"trace", "", "*workload.Generator", 48e6},
		{"video4k", "", "*crosstraffic.VideoClient", 0},
		{"cubic", "on", "*crosstraffic.Fluid", 24e6},
	} {
		for _, until := range []sim.Time{stop, 0} {
			name := fmt.Sprintf("%s fluid=%q [%v, %v)", c.kind, c.fluid, start, until)
			b := scoreCell{
				net:   NetConfig{Buffer: 20 * sim.Millisecond, Seed: 1, Fluid: c.fluid},
				flows: []FlowSpec{{Scheme: spec.MustParse("vegas")}},
				cross: []crossSpec{{kind: c.kind, label: "x", rate: c.rate, start: start, stop: until}},
			}.mustBuild()
			if got := fmt.Sprintf("%T", b.cross[0]); got != c.typ {
				t.Fatalf("%s: handle is a %s, want %s", name, got, c.typ)
			}
			r, self := b.Rig, b.Flows[0].Probe.Sender.ID()
			var bytes float64
			flows := map[netem.FlowID]bool{}
			// The bottleneck is the only hop and the reverse path is
			// ideal, so its deliveries are the rig's.
			next := r.Link.Deliver
			r.Link.Deliver = func(p *netem.Packet, now sim.Time) {
				if p.Flow != self {
					bytes += float64(p.Size)
					flows[p.Flow] = true
				}
				next(p, now)
			}
			// delivered is what the cross traffic delivered so far, in bytes
			// and in flows that delivered anything.
			delivered := func(at sim.Time) (float64, int) {
				r.Sch.RunUntil(at)
				fluid, _ := r.Link.FluidStats()
				return bytes + fluid, len(flows)
			}
			if got, _ := delivered(start); got != 0 {
				t.Errorf("%s: %v bytes delivered before start", name, got)
			}
			drained, drainedFlows := delivered(stop + r.Cfg.RTT)
			tail, _ := delivered(end - 2*sim.Second)
			total, totalFlows := delivered(end)
			switch {
			case drained == 0:
				t.Errorf("%s: nothing delivered in the window", name)
			case until == 0 && total == tail:
				t.Errorf("%s: nothing delivered in the last 2 s of an open window", name)
			case until > 0 && c.kind != "trace" && total != drained:
				t.Errorf("%s: %v bytes delivered after stop + RTT", name, total-drained)
			case until > 0 && totalFlows != drainedFlows:
				t.Errorf("%s: %d flows started after stop + RTT", name, totalFlows-drainedFlows)
			}
		}
	}
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
