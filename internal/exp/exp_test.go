package exp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/crosstraffic"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment in the DESIGN.md index must be present.
	want := []string{
		"fig01", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "table1", "tableE", "mobile",
		"coexist", "topo", "churn", "fidelity",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("registry missing %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs() returned %d", len(ids))
	}
}

func TestEveryExperimentHasFamily(t *testing.T) {
	for _, id := range IDs() {
		if FamilyOf(id) == "" {
			t.Errorf("experiment %s belongs to no family; add one to exp.Families", id)
		}
	}
	list := FormatExperimentList()
	for _, f := range Families {
		if !strings.Contains(list, f.Name+": ") {
			t.Errorf("FormatExperimentList missing family header %q", f.Name)
		}
	}
}

// TestListText: each name -list accepts renders the bytes the -list-NAME
// flag it replaced printed (testdata/list holds them), and any set of
// names renders each listing once, in Listings order, whatever order the
// names come in. An unknown name or an empty item is an error naming the
// four.
func TestListText(t *testing.T) {
	var all string
	for _, name := range Listings {
		want, err := os.ReadFile(filepath.Join("testdata", "list", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ListText(name); err != nil || got != string(want) {
			t.Errorf("-list %s = %q, %v; want testdata/list/%s.txt:\n%s", name, got, err, name, want)
		}
		all += string(want)
	}
	for _, list := range []string{"schemes,traces,topologies,experiments", "experiments, topologies,traces,schemes,traces"} {
		if got, err := ListText(list); err != nil || got != all {
			t.Errorf("-list %s = %q, %v; want the four listings in order", list, got, err)
		}
	}
	for _, bad := range []string{"", "bogus", "schemes,", ",traces", "schemes,,traces", "Schemes", "schemes,list"} {
		_, err := ListText(bad)
		if err == nil || !strings.Contains(err.Error(), strings.Join(Listings, ", ")) {
			t.Errorf("-list %q: err = %v, want an error naming the four listings", bad, err)
		}
	}
}

// TestStartProfiles: both profiles land on disk when stop runs, an empty
// path skips its profile, and an unwritable CPU path is an error before
// anything runs.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("unwritable -cpuprofile path: want an error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", 1, true); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestMustSchemeNames(t *testing.T) {
	names := []string{
		"cubic", "reno", "vegas", "copa", "copa-default", "bbr", "vivace",
		"compound", "fixedwindow", "nimbus", "nimbus-copa", "nimbus-vegas",
		"nimbus-reno", "nimbus-delay", "nimbus-competitive",
	}
	for _, n := range names {
		s := MustScheme(n, 96e6)
		if s.Ctrl == nil {
			t.Fatalf("scheme %s has nil controller", n)
		}
		if s.Name != n {
			t.Fatalf("scheme %s reports Name %q", n, s.Name)
		}
		if strings.HasPrefix(n, "nimbus") && s.Nimbus == nil {
			t.Fatalf("scheme %s should expose Nimbus", n)
		}
		if strings.HasPrefix(n, "copa") && s.Copa == nil {
			t.Fatalf("scheme %s should expose Copa", n)
		}
	}
	// Parameterized specs resolve through the same registry.
	s := MustScheme("nimbus(pulse=0.1,mu=est,multiflow=true)", 96e6)
	if s.Nimbus == nil || s.Name != "nimbus" {
		t.Fatalf("parameterized nimbus: %+v", s)
	}
}

func TestMustSchemeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown scheme")
		}
	}()
	MustScheme("quic", 96e6)
}

func TestBuildSchemeRejectsBadParams(t *testing.T) {
	for _, s := range []string{"cubic(pulse=0.1)", "nimbus(mu=maybe)", "nimbus(pulse=zero)", "copa(delta=-1)"} {
		sp, err := spec.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if _, err := BuildScheme(sp, 96e6, nil); err == nil {
			t.Errorf("BuildScheme(%q) accepted a bad spec", s)
		}
	}
}

func TestNewRigAQMs(t *testing.T) {
	for _, aqm := range []string{"droptail", "pie", "codel", ""} {
		r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, AQM: aqm, Seed: 1})
		if r.Link == nil || r.Net == nil {
			t.Fatalf("rig for %q incomplete", aqm)
		}
	}
}

// TestProbeRTTOptIn: a probe samples RTT only once an experiment that
// reports one asks; the stream split for it is taken either way
// (TestRigEventOrderPinned holds the draw order).
func TestProbeRTTOptIn(t *testing.T) {
	for _, record := range []bool{false, true} {
		r := NewRig(NetConfig{RateMbps: 24, RTT: 20 * sim.Millisecond, Seed: 1})
		probe := r.AddFlow(MustScheme("cubic", r.MuBps), 20*sim.Millisecond, 0)
		acks := 0
		if record {
			probe.RecordRTT()
			rec := probe.Sender.OnAckHook
			probe.Sender.OnAckHook = func(a transport.AckInfo) { acks++; rec(a) }
		} else if probe.Sender.OnAckHook != nil {
			t.Fatal("AddFlow installed an ACK hook nobody asked for")
		}
		r.Sch.RunUntil(2 * sim.Second)
		if probe.Delay.Len() == 0 {
			t.Fatal("no packet delivered")
		}
		if got := probe.RTTms.Len(); got != acks || (got > 0) != record {
			t.Fatalf("RecordRTT %v: %d RTT samples for %d ACKs", record, got, acks)
		}
	}
}

// TestAddCrossKinds: every row of the kind table starts, as packets or
// — on a fluid rig, where the row says there is a model — as a rate
// process, and carries the ground truth crossFor reports; nothing
// outside the table is accepted.
func TestAddCrossKinds(t *testing.T) {
	for _, k := range crosstraffic.Kinds {
		for _, fluid := range []string{"", "on"} {
			r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Seed: 1, Fluid: fluid})
			if err := AddCross(r, k.Name, 24e6, 50*sim.Millisecond); err != nil {
				t.Fatalf("AddCross(%s) fluid=%q: %v", k.Name, fluid, err)
			}
			r.Sch.RunUntil(200 * sim.Millisecond) // must not panic
			wantPackets := k.Name != "none" && !(fluid == "on" && k.Fluid)
			if got := r.Link.DeliveredPackets > 0; got != wantPackets {
				t.Errorf("AddCross(%s) fluid=%q: delivered packets = %v, want %v", k.Name, fluid, got, wantPackets)
			}
		}
		if _, elastic, _ := crossFor(k.Name, "", 24e6, 0); elastic != k.Elastic {
			t.Errorf("crossFor(%s): elastic = %v, table says %v", k.Name, elastic, k.Elastic)
		}
	}
	r := NewRig(NetConfig{RateMbps: 96, RTT: 50 * sim.Millisecond, Seed: 1})
	if err := AddCross(r, "bogus", 0, 0); err == nil {
		t.Fatal("expected error for unknown cross kind")
	}
}

func TestFig07PulseChecks(t *testing.T) {
	tab := Fig07(0, false).Panels[0]
	if v := tab.Num(0, "peak/mu"); v < 0.249 || v > 0.251 {
		t.Fatalf("peak = %v", v)
	}
	if v := tab.Num(0, "trough/mu"); v < 0.082 || v > 0.085 {
		t.Fatalf("trough = %v", v)
	}
	if v := tab.Num(0, "|mean|/mu"); !(v <= 1e-3) {
		t.Fatalf("mean = %v", v)
	}
	if v := tab.Num(0, "burst/BDP"); v < 0.035 || v > 0.045 {
		t.Fatalf("burst/BDP = %v, paper says ~0.04", v)
	}
}

func TestFig05Shape(t *testing.T) {
	tab := Fig05(1, true).Panels[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	const elastic, inelastic = 0, 1
	if tab.Rows[elastic][0] != "elastic" || tab.Rows[inelastic][0] != "inelastic" {
		t.Fatal("row order wrong")
	}
	if eta := tab.Num(elastic, "eta"); !(eta >= 2) {
		t.Fatalf("elastic eta = %v, want >= 2", eta)
	}
	if eta := tab.Num(inelastic, "eta"); !(eta < 2) {
		t.Fatalf("inelastic eta = %v, want < 2", eta)
	}
	// The discriminating quantity is eta (a ratio); the absolute peak
	// magnitudes depend on the operating mode but must still separate.
	if el, inel := tab.Num(elastic, "|FFT| @5Hz Mbps"), tab.Num(inelastic, "|FFT| @5Hz Mbps"); !(el >= 1.5*inel) {
		t.Fatalf("5 Hz peak separation too small: %v vs %v", el, inel)
	}
}

func TestFig04Shape(t *testing.T) {
	tab := Fig04(1, true).Panels[0]
	el, inel := tab.Num(0, "z osc (pk-pk/mean)"), tab.Num(1, "z osc (pk-pk/mean)")
	if !(el >= 2*inel) {
		t.Fatalf("elastic z oscillation %v not clearly above inelastic %v", el, inel)
	}
}

func TestFig03SelfDelayRatios(t *testing.T) {
	tab := Fig03(1, true).Panels[0]
	el, inel := tab.Num(0, "self/total, elastic"), tab.Num(0, "self/total, inelastic")
	// The paper's point: the ratios are similar in both phases, near
	// the flow's throughput share. Allow a broad band.
	if !(el >= 0.2 && el <= 0.8) {
		t.Fatalf("elastic self ratio = %v", el)
	}
	if !(inel >= 0.2) {
		t.Fatalf("inelastic self ratio = %v", inel)
	}
	if diff := math.Abs(el - inel); !(diff <= 0.45) {
		t.Fatalf("self ratios should be indistinguishable-ish: %v vs %v", el, inel)
	}
}

func TestFig23HighCBRShape(t *testing.T) {
	// The key claim of App D.1: at 80 Mbit/s CBR Copa misclassifies
	// (high wrong-mode fraction and delay), Nimbus does not. Quick mode
	// is the 40 s horizon; rows 2 and 3 are the 80 Mbit/s cells.
	tab := Fig23(1, true).Panels[0]
	const copaRow, nimbRow = 2, 3
	for row, scheme := range map[int]string{copaRow: "copa", nimbRow: "nimbus"} {
		if tab.Rows[row][0] != scheme || tab.Num(row, "CBR") != 80 {
			t.Fatalf("row %d is %v, want %s at 80M", row, tab.Rows[row][:2], scheme)
		}
	}
	copa, nimb := tab.Num(copaRow, "wrong-mode"), tab.Num(nimbRow, "wrong-mode")
	if !(nimb <= 0.3) {
		t.Fatalf("nimbus wrong-mode at 80M CBR = %v", nimb)
	}
	if !(copa >= nimb) {
		t.Fatalf("copa (%v) should be worse than nimbus (%v) at high CBR", copa, nimb)
	}
}

func TestPaths25Properties(t *testing.T) {
	paths := Paths25()
	if len(paths) != 25 {
		t.Fatalf("got %d paths", len(paths))
	}
	policers, varying := 0, 0
	names := map[string]bool{}
	for _, p := range paths {
		if names[p.Name] {
			t.Fatalf("duplicate path name %s", p.Name)
		}
		names[p.Name] = true
		if p.RateMbps <= 0 || p.RTT <= 0 || p.Buffer <= 0 {
			t.Fatalf("invalid path %+v", p)
		}
		if p.Policer {
			policers++
		}
		if p.Pattern != "" {
			varying++
			if _, err := netem.ParsePattern(p.Pattern, p.RateMbps*1e6); err != nil {
				t.Fatalf("path %s has unparseable pattern %q: %v", p.Name, p.Pattern, err)
			}
		}
	}
	if policers == 0 {
		t.Fatal("suite needs lossy/policed paths")
	}
	if policers > 12 {
		t.Fatal("too many policed paths; Fig 19 needs paths with queueing")
	}
	if varying < 3 {
		t.Fatalf("suite should include time-varying paths, got %d", varying)
	}
}

func TestParallelFigureDeterminism(t *testing.T) {
	// The acceptance bar for the sweep engine: running a figure grid on N
	// workers must produce byte-identical reports to a sequential run.
	// Fig22 (4 cells in quick mode at a shortened horizon) keeps this fast.
	old := Workers
	defer func() { Workers = old }()

	run := func(w int) string {
		Workers = w
		return fig22([]float64{0.5, 2}, 1, 10*sim.Second).String()
	}
	seq := run(1)
	for _, w := range []int{2, 8} {
		if par := run(w); par != seq {
			t.Fatalf("workers=%d report differs from sequential:\n%s\nvs\n%s", w, par, seq)
		}
	}

	// One cell description is one result, and the cross flow's stream
	// label is part of the description (BBR draws its probing phase from
	// it): Fig22's cell under another label is another run.
	cell := func(label string) string {
		c := scoreCell{cross: []crossSpec{{kind: "bbr", label: label}}, elastic: true}
		res := c.run(spec.MustParse("nimbus"), 1, 12*sim.Second)
		return fmt.Sprint(res.Flows[0].Probe.MeanMbps(0, 12*sim.Second), res.acc.Accuracy(), res.etas)
	}
	a, b := cell("bbr"), cell("bbr")
	if a != b {
		t.Fatalf("the same cell description ran differently:\n%s\nvs\n%s", a, b)
	}
	if a == cell("bbr-relabeled") {
		t.Fatal("a changed RNG label left the run unchanged")
	}
}

func TestRunScenarioMetrics(t *testing.T) {
	r := RunScenario(runner.Scenario{
		Name: "smoke", RateMbps: 48, RTTms: 50, BufferMs: 100,
		Scheme: spec.MustParse("nimbus"), Cross: "poisson", CrossRateMbps: 12,
		DurationSec: 8, Seed: 7,
	})
	if r.Err != "" {
		t.Fatalf("scenario failed: %s", r.Err)
	}
	if r.Events == 0 {
		t.Fatal("no simulator events recorded")
	}
	m := r.Metrics
	if m["mean_mbps"] <= 1 || m["mean_mbps"] > 48 {
		t.Fatalf("mean_mbps = %v, want within (1, 48]", m["mean_mbps"])
	}
	if _, ok := m["mode_switches"]; !ok {
		t.Fatal("nimbus scheme should report mode telemetry")
	}
	// Unknown cross kinds surface as error rows, not panics.
	bad := RunScenario(runner.Scenario{RateMbps: 48, RTTms: 50, Scheme: spec.MustParse("cubic"), Cross: "flood", DurationSec: 1})
	if bad.Err == "" {
		t.Fatal("bad cross kind should produce an error row")
	}
}

func TestFormattersNonEmpty(t *testing.T) {
	// Cheap formatting checks (no simulation).
	if s := Fig07(0, false).String(); !strings.Contains(s, "pulse") {
		t.Fatal("fig07 format")
	}
	if s := table1Report([][]any{{"x", "Elastic", "Elastic", 0.0, 0.0}}).String(); !strings.Contains(s, "Table 1") {
		t.Fatal("table1 format")
	}
	if s := fig14Report(nil, nil).String(); !strings.Contains(s, "Fig 14") {
		t.Fatal("fig14 format")
	}
}
