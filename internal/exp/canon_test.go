package exp

import (
	"reflect"
	"strings"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
)

// TestCanonicalGridCollapsesSpellings: every spelling of a spec-valued
// axis value — in the base and in a list — lands on one string, so the
// expansions share scenario keys and derived seeds.
func TestCanonicalGridCollapsesSpellings(t *testing.T) {
	base := runner.Scenario{RateMbps: 48, RTTms: 20, BufferMs: 50, DurationSec: 5, Seed: 1}
	plain := runner.Grid{Base: base, Schemes: spec.Specs("nimbus", "cubic")}
	respelt := plain
	respelt.Topologies = []string{"single"}
	respelt.Fluids = []string{"off"}
	respelt.Base.Topology = " single "
	respelt.Base.FluidCross = "none"
	// A parameter spelt out at its declared default is the default.
	respelt.Schemes = spec.Specs("nimbus(pulse=0.25,mu=oracle)", "cubic")
	respelt.Base.Scheme = spec.MustParse("copa(delta=0.5)")
	plain.Base.Scheme = spec.MustParse("copa")

	a, err := CanonicalGrid(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalGrid(respelt)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Expand(), b.Expand()
	if len(as) != 2 || !reflect.DeepEqual(as, bs) {
		t.Fatalf("a respelt grid expands to different cells:\n%+v\n%+v", as, bs)
	}
	if respelt.Topologies[0] != "single" || respelt.Fluids[0] != "off" || len(respelt.Schemes[0].Params) != 2 {
		t.Fatalf("CanonicalGrid modified its argument's lists: %+v", respelt)
	}
	if !b.Base.Scheme.Equal(spec.New("copa")) || !b.Schemes[0].Equal(spec.New("nimbus")) {
		t.Fatalf("explicit defaults survive on the scheme axis: base %s, schemes %v", b.Base.Scheme, b.Schemes)
	}
	kept, err := CanonicalGrid(runner.Grid{Schemes: spec.Specs("nimbus(pulse=0.125,mu=oracle)")})
	if err != nil || kept.Schemes[0].String() != "nimbus(pulse=0.125)" {
		t.Fatalf("a non-default parameter did not survive: %v (err %v)", kept.Schemes, err)
	}

	for _, c := range []struct{ axis, in, want string }{
		{"topology", "single", ""},
		{"topology", "access-hop", "access-hop"},
		{"fluid", "off", ""},
		{"fluid", "on", "on"},
		{"fluid", "dt=5.0ms", "dt=5ms"},
		{"churn", "bulk(load=24.0)", "bulk(load=24)"},
		{"churn", "bulk(load=96,xm=3000)", "bulk(load=96,xm=3000)"},
		{"churn", "web(load=96)", "web(load=96)"},
		{"churn", "bulk(load=12)", "bulk"},
		{"churn", "web(cc=cubic,load=24,max=0)", "web(load=24)"},
		{"churn", "bulk(cc=nimbus(pulse=0.25))", "bulk(cc=nimbus)"},
		{"churn", "bulk(cc=nimbus(pulse=0.125))", "bulk(cc=nimbus(pulse=0.125))"},
		{"flows", "nimbus + cubic", "nimbus+cubic"},
		{"flows", "nimbus*4", "nimbus*4"},
		{"flows", "nimbus*2+bbr@2.0", "nimbus*2+bbr@2"},
		{"flows", "nimbus(pulse=0.25)+cubic", "nimbus+cubic"},
		{"flows", "nimbus(pulse=0.125)*2+copa(delta=0.5)@2", "nimbus(pulse=0.125)*2+copa@2"},
	} {
		// Once as the base value, once as a list entry.
		var g runner.Grid
		base, list := stringAxis(&g, c.axis)
		*base, *list = c.in, []string{"", c.in}
		got, err := CanonicalGrid(g)
		if err != nil {
			t.Errorf("%s %q: %v", c.axis, c.in, err)
			continue
		}
		*base, *list = c.want, []string{"", c.want}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("%s %q: canonical grid %+v, want %+v", c.axis, c.in, got, g)
		}
		again, err := CanonicalGrid(got)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s %q: not idempotent: %+v then %+v (err %v)", c.axis, c.in, got, again, err)
		}
	}
}

// stringAxis returns the base field and the list of a string-valued
// spec axis of g.
func stringAxis(g *runner.Grid, axis string) (*string, *[]string) {
	switch axis {
	case "topology":
		return &g.Base.Topology, &g.Topologies
	case "fluid":
		return &g.Base.FluidCross, &g.Fluids
	case "churn":
		return &g.Base.Churn, &g.Churns
	case "flows":
		return &g.Base.FlowMix, &g.FlowMixes
	}
	panic("no string axis " + axis)
}

// TestCanonicalGridRejectsBadSpecs: a malformed or unknown spec is one
// error naming the axis by its JSON field, before anything expands.
func TestCanonicalGridRejectsBadSpecs(t *testing.T) {
	for _, c := range []struct {
		name string
		g    runner.Grid
	}{
		{"schemes", runner.Grid{Schemes: []spec.Spec{spec.New("nimbus"), spec.New("nosuchscheme")}}},
		{"schemes", runner.Grid{Schemes: spec.Specs("nimbus(nosuchparam=1)")}},
		{"base.scheme", runner.Grid{Base: runner.Scenario{Scheme: spec.New("nosuchscheme")}}},
		{"fluids", runner.Grid{Fluids: []string{"on", "dt=fast"}}},
		{"base.fluid_cross", runner.Grid{Base: runner.Scenario{FluidCross: "dt=-1ms"}}},
		{"topologies", runner.Grid{Topologies: []string{"access-hop", "no-such-preset"}}},
		{"base.topology", runner.Grid{Base: runner.Scenario{Topology: "a(->"}}},
		{"churns", runner.Grid{Churns: []string{"bulk(load=oops)"}}},
		{"base.churn", runner.Grid{Base: runner.Scenario{Churn: "nosuchmodel"}}},
		{"flow_mixes", runner.Grid{FlowMixes: []string{"nimbus+nosuchscheme"}}},
		{"base.flow_mix", runner.Grid{Base: runner.Scenario{FlowMix: "nimbus*0"}}},
		{"crosses[].kind", runner.Grid{Crosses: []runner.Cross{{Kind: "cubic"}, {Kind: "cubik"}}}},
		{"base.cross", runner.Grid{Base: runner.Scenario{Cross: "Trace"}}},
	} {
		_, err := CanonicalGrid(c.g)
		if err == nil || !strings.Contains(err.Error(), "grid "+c.name+":") {
			t.Errorf("bad %s: err = %v, want an error naming the axis", c.name, err)
		}
	}
}

// TestCanonicalGridRejectsUnknownAQM: a misspelt queue discipline is one
// error naming the field before anything runs — not a panic in NewRig
// turned into an error row per cell — and the names netem.AQMs lists
// pass unchanged ("" and "droptail" stay two keys).
func TestCanonicalGridRejectsUnknownAQM(t *testing.T) {
	for name, g := range map[string]runner.Grid{
		"base.aqm": {Base: runner.Scenario{AQM: "bogus"}},
		"aqms":     {AQMs: []string{"pie", "red"}},
	} {
		_, err := CanonicalGrid(g)
		if err == nil || !strings.Contains(err.Error(), "grid "+name+":") || !strings.Contains(err.Error(), "droptail, pie, codel") {
			t.Errorf("bad %s: err = %v, want an error naming the field and the AQMs on offer", name, err)
		}
	}
	all := []string{""}
	for _, a := range netem.AQMs {
		all = append(all, a.Name)
	}
	g, err := CanonicalGrid(runner.Grid{Base: runner.Scenario{AQM: "codel"}, AQMs: all})
	if err != nil || !reflect.DeepEqual(g.AQMs, all) || g.Base.AQM != "codel" {
		t.Fatalf("CanonicalGrid(every AQM) = %q, %q, %v; want them unchanged", g.Base.AQM, g.AQMs, err)
	}
	// A hand-built cell that skipped CanonicalGrid is an error row.
	if r := RunScenario(runner.Scenario{RateMbps: 48, RTTms: 50, AQM: "bogus", Scheme: spec.MustParse("cubic"), DurationSec: 1}); !strings.Contains(r.Err, `unknown AQM "bogus"`) {
		t.Fatalf("RunScenario with a bogus AQM: Err = %q", r.Err)
	}
}
