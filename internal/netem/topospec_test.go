package netem

import (
	"strings"
	"testing"

	"nimbus/internal/sim"
)

// TestTopoSpecPresets: every registered preset parses, validates, and is
// its own canonical form; the single preset canonicalizes to "".
func TestTopoSpecPresets(t *testing.T) {
	names := TopologyNames()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 presets, got %v", names)
	}
	for _, name := range names {
		ts, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if ts.String() != name {
			t.Errorf("preset %s renders as %q", name, ts.String())
		}
		if ts.LinkByName(ts.Bottleneck) == nil {
			t.Errorf("preset %s: bottleneck %q not a link", name, ts.Bottleneck)
		}
		if TopologyDoc(name) == "" {
			t.Errorf("preset %s has no doc", name)
		}
	}
	for _, alias := range []string{"", "single", "SINGLE"} {
		c, err := CanonicalTopology(alias)
		if err != nil || c != "" {
			t.Errorf("CanonicalTopology(%q) = %q, %v; want \"\"", alias, c, err)
		}
	}
}

// TestTopoSpecChainRoundTrip: chain specs parse to the expected structure
// and round-trip through their canonical form.
func TestTopoSpecChainRoundTrip(t *testing.T) {
	in := "access( 100mbps , 5ms )->bn(droptail,buf=50ms)"
	ts, err := ParseTopology(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Links) != 2 || ts.Links[0].Name != "access" || ts.Links[1].Name != "bn" {
		t.Fatalf("links: %+v", ts.Links)
	}
	if ts.Links[0].RateMbps != 100 || ts.Links[0].DelayMs != 5 {
		t.Fatalf("access params: %+v", ts.Links[0])
	}
	if ts.Links[1].AQM != "droptail" || ts.Links[1].BufferMs != 50 {
		t.Fatalf("bn params: %+v", ts.Links[1])
	}
	// bn has no explicit rate, so it is the bottleneck.
	if ts.Bottleneck != "bn" {
		t.Fatalf("bottleneck %q, want bn", ts.Bottleneck)
	}
	canon := ts.String()
	ts2, err := ParseTopology(canon)
	if err != nil {
		t.Fatalf("canonical %q does not reparse: %v", canon, err)
	}
	if ts2.String() != canon {
		t.Fatalf("canonical form unstable: %q -> %q", canon, ts2.String())
	}
	// One default route spanning the chain.
	if len(ts.Routes) != 1 || len(ts.Routes[0].Fwd) != 2 || ts.Routes[0].Name != "" {
		t.Fatalf("routes: %+v", ts.Routes)
	}
}

// TestTopoSpecScaleAndPattern: x-scales resolve against the nominal rate
// and pattern params validate at parse time.
func TestTopoSpecScaleAndPattern(t *testing.T) {
	ts, err := ParseTopology("access(x4,5ms)->bn(pattern=step:6:24:2000)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Links[0].ResolveRate(48e6); got != 192e6 {
		t.Fatalf("x4 of 48e6 = %g", got)
	}
	if got := ts.Links[1].ResolveRate(48e6); got != 48e6 {
		t.Fatalf("inherit = %g", got)
	}
	if ts.Links[1].Pattern != "step:6:24:2000" {
		t.Fatalf("pattern: %q", ts.Links[1].Pattern)
	}
	// All-explicit-rate chain: the lowest rate wins the µ link once the
	// nominal rate is known (the static Bottleneck only anchors
	// validation).
	ts, err = ParseTopology("a(100mbps)->b(20mbps)->c(50mbps)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.BottleneckAt(48e6); got != "b" {
		t.Fatalf("bottleneck %q, want b (lowest rate)", got)
	}
	// Mixed scaled and absolute rates resolve against the actual nominal:
	// x4 of 24 Mbit/s is 96, so the 48 Mbit/s link is the bottleneck —
	// and at a 200 Mbit/s nominal the scaled link still isn't (x4 = 800).
	ts, err = ParseTopology("access(x4,5ms)->bn(48mbps)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.BottleneckAt(24e6); got != "bn" {
		t.Fatalf("mixed-rate bottleneck at 24 Mbit/s: %q, want bn", got)
	}
	if got := ts.BottleneckAt(10e6); got != "access" {
		t.Fatalf("mixed-rate bottleneck at 10 Mbit/s: %q, want access (x4 = 40 < 48)", got)
	}
	// Presets keep their declared bottleneck even when another link is
	// slower (rev-congested's reverse link carries ACKs, not data).
	ts, err = ParseTopology("rev-congested")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.BottleneckAt(48e6); got != "bn" {
		t.Fatalf("rev-congested bottleneck: %q, want the declared bn", got)
	}
}

// TestTopoSpecSingleEquivalents: a bare one-link chain with no parameters
// is the single topology.
func TestTopoSpecSingleEquivalents(t *testing.T) {
	for _, in := range []string{"bn()", "x()"} {
		ts, err := ParseTopology(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !ts.Single() {
			t.Errorf("%q should canonicalize to the single preset, got %q", in, ts.String())
		}
	}
	// But a one-link chain with parameters is its own topology.
	ts, err := ParseTopology("bn(pie)")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Single() {
		t.Error("bn(pie) should not collapse to the single preset")
	}
}

// TestTopoSpecErrors: malformed specs fail with useful messages.
func TestTopoSpecErrors(t *testing.T) {
	cases := map[string]string{
		"warp-core":                       "unknown topology",
		"a(12mbps)->a(6mbps)":             "duplicate link",
		"a(bogus)":                        "unknown parameter",
		"a(-5ms)":                         "bad delay",
		"a(x0)":                           "bad rate scale",
		"a(10mbps,x2)":                    "both an absolute rate and a scale",
		"a(pattern=step:6)":               "want 3 args",
		"a(10mbps)->b(":                   "missing closing parenthesis",
		strings.Repeat("A", 3) + "(10ms)": "", // uppercase names are lowered, no error
	}
	for in, want := range cases {
		_, err := ParseTopology(in)
		if want == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", in, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want containing %q", in, err, want)
		}
	}
}

// TestTopoSpecPresetIsolation: mutating a parsed preset (LinkByName
// returns pointers into the spec) must not corrupt the registry.
func TestTopoSpecPresetIsolation(t *testing.T) {
	ts, err := ParseTopology("parking-lot")
	if err != nil {
		t.Fatal(err)
	}
	ts.LinkByName("hop2").AQM = "pie"
	ts.Routes[0].Fwd[0] = "mutated"
	again, err := ParseTopology("parking-lot")
	if err != nil {
		t.Fatal(err)
	}
	if again.LinkByName("hop2").AQM != "" {
		t.Fatal("mutating a parsed preset leaked into the registry (Links)")
	}
	if again.Routes[0].Fwd[0] != "hop1" {
		t.Fatal("mutating a parsed preset leaked into the registry (Routes)")
	}
}

// TestTopoSpecBurstRejected: burst link forwarding was deleted (see
// DESIGN.md, "Decided"), and a spec still asking for it must fail loudly
// as an unknown parameter rather than run per-packet under a burst name.
func TestTopoSpecBurstRejected(t *testing.T) {
	_, err := ParseTopology("bn(48mbps,burst=16)")
	if err == nil || !strings.Contains(err.Error(), `unknown parameter "burst=16"`) {
		t.Fatalf("burst=16: error %v, want an unknown-parameter error", err)
	}
}

// TestAQMTable: every row of AQMs is a link parameter of a chain spec and
// builds a queue, and only a discipline that draws random numbers splits
// a stream off the caller's (a split is a draw, so every later stream of
// a rig depends on it).
func TestAQMTable(t *testing.T) {
	for _, a := range AQMs {
		ts, err := ParseTopology("access(x4)->bn(" + a.Name + ")")
		if err != nil || ts.LinkByName("bn").AQM != a.Name {
			t.Errorf("%s as a link parameter: AQM = %q, err = %v", a.Name, ts.LinkByName("bn").AQM, err)
		}
		if got, ok := AQMByName(a.Name); !ok || got.Name != a.Name {
			t.Errorf("AQMByName(%s) = %q, %v", a.Name, got.Name, ok)
		}
		rng, untouched := sim.NewRand(1), sim.NewRand(1)
		q := a.New(150000, 48e6, 20*sim.Millisecond, rng, "pie")
		if drew := rng.Float64() != untouched.Float64(); q == nil || drew != (a.Name == "pie") {
			t.Errorf("%s: queue %v, drew from the caller's stream: %v", a.Name, q, drew)
		}
	}
	if a, ok := AQMByName(""); !ok || a.Name != "droptail" {
		t.Errorf(`AQMByName("") = %q, %v; want the default, droptail`, a.Name, ok)
	}
	if _, ok := AQMByName("red"); ok {
		t.Error("AQMByName(red) found a discipline")
	}
}
