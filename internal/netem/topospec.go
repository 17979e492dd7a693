package netem

import (
	"fmt"
	"strconv"
	"strings"
)

// LinkSpec declares one directed link of a topology, symbolically: rates
// and buffers may be left to the scenario ("inherit the nominal
// bottleneck rate") so one spec works across a rate sweep, the way scheme
// specs leave defaulted parameters to the registry.
type LinkSpec struct {
	Name string
	// RateMbps is the link's absolute capacity; 0 defers to RateScale.
	RateMbps float64
	// RateScale, when RateMbps is 0 and RateScale > 0, makes the link's
	// capacity a multiple of the scenario's nominal rate ("x4"). Both
	// zero means the link inherits the nominal rate itself.
	RateScale float64
	// DelayMs is the wire propagation delay crossed before entering the
	// link.
	DelayMs float64
	// AQM is the link's queue discipline; empty means drop-tail, except
	// on the bottleneck link where it defers to the scenario's AQM.
	AQM string
	// BufferMs sizes the link's buffer in time at its own rate; 0 defers
	// to the scenario's buffer depth.
	BufferMs float64
	// Pattern, when non-empty, gives the link a time-varying capacity
	// (ParsePattern, anchored at the link's resolved rate). The
	// scenario's LinkTrace/RatePattern, when set, override the
	// bottleneck link's pattern.
	Pattern string
	// FluidMbps, when > 0, loads this link with a constant fluid
	// background aggregate of that rate (Link.EnableFluid +
	// AddFluidRate): the load shapes queue occupancy, drops, and
	// utilization analytically without per-packet events. It composes
	// with a scenario-level fluid cross-traffic source on the same link.
	FluidMbps float64
}

// ResolveRate returns the link's capacity in bits/s given the scenario's
// nominal rate.
func (ls LinkSpec) ResolveRate(nominalBps float64) float64 {
	if ls.RateMbps > 0 {
		return ls.RateMbps * 1e6
	}
	if ls.RateScale > 0 {
		return ls.RateScale * nominalBps
	}
	return nominalBps
}

// RouteSpec names an ordered hop list for each direction. An empty Name
// is the default route; an empty Rev is the ideal (pure-delay) reverse
// path.
type RouteSpec struct {
	Name string
	Fwd  []string
	Rev  []string
}

// TopoSpec is a parsed topology: links, routes over them, and the
// designated bottleneck (the µ link oracles and link-level metrics refer
// to). Specs are symbolic — instantiation (queues, schedules, random
// streams) happens in the experiment layer.
type TopoSpec struct {
	// Preset is the registered preset name this spec came from; empty
	// for parsed chain specs. The canonical string form of a preset is
	// its name.
	Preset string
	Links  []LinkSpec
	Routes []RouteSpec
	// Bottleneck names the µ link.
	Bottleneck string
}

// Single reports whether the spec is the paper's trivial one-hop
// topology.
func (ts TopoSpec) Single() bool { return ts.Preset == "single" }

// clone deep-copies the spec's slices, so a parsed preset can be tweaked
// (LinkByName returns pointers into Links) without mutating the registry.
func (ts TopoSpec) clone() TopoSpec {
	out := ts
	out.Links = append([]LinkSpec(nil), ts.Links...)
	out.Routes = make([]RouteSpec, len(ts.Routes))
	for i, r := range ts.Routes {
		out.Routes[i] = RouteSpec{
			Name: r.Name,
			Fwd:  append([]string(nil), r.Fwd...),
			Rev:  append([]string(nil), r.Rev...),
		}
	}
	return out
}

// LinkByName returns the named link spec, or nil.
func (ts TopoSpec) LinkByName(name string) *LinkSpec {
	for i := range ts.Links {
		if ts.Links[i].Name == name {
			return &ts.Links[i]
		}
	}
	return nil
}

// String renders the canonical form: the preset name, or the forward
// chain with each link's non-default parameters ("access(x4,5ms)->bn").
func (ts TopoSpec) String() string {
	if ts.Preset != "" {
		return ts.Preset
	}
	parts := make([]string, 0, len(ts.Links))
	for _, l := range ts.Links {
		parts = append(parts, l.format())
	}
	return strings.Join(parts, "->")
}

func (ls LinkSpec) format() string {
	var params []string
	if ls.RateMbps > 0 {
		params = append(params, formatNum(ls.RateMbps)+"mbps")
	} else if ls.RateScale > 0 {
		params = append(params, "x"+formatNum(ls.RateScale))
	}
	if ls.DelayMs > 0 {
		params = append(params, formatNum(ls.DelayMs)+"ms")
	}
	if ls.AQM != "" {
		params = append(params, ls.AQM)
	}
	if ls.BufferMs > 0 {
		params = append(params, "buf="+formatNum(ls.BufferMs)+"ms")
	}
	if ls.Pattern != "" {
		params = append(params, "pattern="+ls.Pattern)
	}
	if ls.FluidMbps > 0 {
		params = append(params, "fluid="+formatNum(ls.FluidMbps)+"mbps")
	}
	if len(params) == 0 {
		return ls.Name
	}
	return ls.Name + "(" + strings.Join(params, ",") + ")"
}

func formatNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// topoPreset pairs a registered preset spec with its documentation.
type topoPreset struct {
	spec TopoSpec
	doc  string
}

// topoPresets is the preset registry; presetOrder fixes listing order.
var topoPresets = map[string]topoPreset{}
var presetOrder []string

// RegisterTopology adds a preset topology to the registry, making it
// available to spec strings, scenarios, and sweeps everywhere. The
// spec's Preset field is set to name; its canonical form is the name.
func RegisterTopology(name, doc string, spec TopoSpec) {
	if _, dup := topoPresets[name]; dup {
		panic("netem: duplicate topology preset " + name)
	}
	spec.Preset = name
	if err := validateTopoSpec(spec); err != nil {
		panic("netem: preset " + name + ": " + err.Error())
	}
	// Stored and handed out by deep copy, so neither the registrant nor
	// ParseTopology callers can mutate the registry through the slices.
	topoPresets[name] = topoPreset{spec: spec.clone(), doc: doc}
	presetOrder = append(presetOrder, name)
}

// TopologyNames lists the registered preset names in registration order.
func TopologyNames() []string { return append([]string(nil), presetOrder...) }

// TopologyDoc returns a preset's one-line documentation.
func TopologyDoc(name string) string { return topoPresets[name].doc }

func init() {
	RegisterTopology("single",
		"the paper's Fig. 2 single bottleneck (the default)",
		TopoSpec{
			Links:      []LinkSpec{{Name: "bn"}},
			Routes:     []RouteSpec{{Fwd: []string{"bn"}}},
			Bottleneck: "bn",
		})
	RegisterTopology("access-hop",
		"a fast access link (4x nominal, 5 ms) in front of the bottleneck; cross traffic can enter at the bottleneck via route bn-only",
		TopoSpec{
			Links: []LinkSpec{
				{Name: "access", RateScale: 4, DelayMs: 5},
				{Name: "bn"},
			},
			Routes: []RouteSpec{
				{Fwd: []string{"access", "bn"}},
				{Name: "bn-only", Fwd: []string{"bn"}},
			},
			Bottleneck: "bn",
		})
	RegisterTopology("parking-lot",
		"three equal-rate hops in a chain; the default route crosses all three, routes hop1/hop2/hop3 cross one each (multi-bottleneck fairness)",
		TopoSpec{
			Links: []LinkSpec{
				{Name: "hop1", DelayMs: 2},
				{Name: "hop2", DelayMs: 2},
				{Name: "hop3", DelayMs: 2},
			},
			Routes: []RouteSpec{
				{Fwd: []string{"hop1", "hop2", "hop3"}},
				{Name: "hop1", Fwd: []string{"hop1"}},
				{Name: "hop2", Fwd: []string{"hop2"}},
				{Name: "hop3", Fwd: []string{"hop3"}},
			},
			Bottleneck: "hop1",
		})
	RegisterTopology("rev-congested",
		"the bottleneck plus a narrow reverse link (5% of nominal) that ACKs traverse; congest it via route rev-cross",
		TopoSpec{
			Links: []LinkSpec{
				{Name: "bn"},
				{Name: "rev", RateScale: 0.05},
			},
			Routes: []RouteSpec{
				{Fwd: []string{"bn"}, Rev: []string{"rev"}},
				{Name: "rev-cross", Fwd: []string{"rev"}},
			},
			Bottleneck: "bn",
		})
}

// ParseTopology resolves a topology spec string: empty or "single" is the
// paper's one-hop topology, other registered preset names resolve from
// the registry, and anything else parses as a forward chain of link
// specs — "access(100mbps,5ms)->bn(48mbps,droptail)" — whose default
// route crosses every link in order. Link parameters, comma-separated in
// any order: an absolute rate ("100mbps"), a nominal-rate multiple
// ("x4"), a wire delay ("5ms"), an AQM name (a row of AQMs), a
// buffer depth ("buf=50ms"), a capacity pattern
// ("pattern=step:6:24:2000"), and a constant fluid background load
// ("fluid=24mbps"). A chain's bottleneck is its link with no explicit
// rate, or the lowest-rate link when all rates are explicit.
func ParseTopology(s string) (TopoSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		s = "single"
	}
	if !strings.Contains(s, "->") && !strings.Contains(s, "(") {
		p, ok := topoPresets[strings.ToLower(s)]
		if !ok {
			return TopoSpec{}, fmt.Errorf("netem: unknown topology %q (presets: %s; or a chain like access(x4,5ms)->bn)",
				s, strings.Join(TopologyNames(), ", "))
		}
		return p.spec.clone(), nil
	}
	var ts TopoSpec
	segs := strings.Split(s, "->")
	// Keep routes far inside the packet hop index's range; no plausible
	// emulated path needs more hops than this.
	const maxChainLinks = 64
	if len(segs) > maxChainLinks {
		return TopoSpec{}, fmt.Errorf("netem: topology %q: %d links exceeds the %d-link limit", s, len(segs), maxChainLinks)
	}
	for _, seg := range segs {
		ls, err := parseLinkSpec(seg)
		if err != nil {
			return TopoSpec{}, fmt.Errorf("netem: topology %q: %w", s, err)
		}
		if ts.LinkByName(ls.Name) != nil {
			return TopoSpec{}, fmt.Errorf("netem: topology %q: duplicate link %q", s, ls.Name)
		}
		ts.Links = append(ts.Links, ls)
	}
	route := RouteSpec{}
	for _, l := range ts.Links {
		route.Fwd = append(route.Fwd, l.Name)
	}
	ts.Routes = []RouteSpec{route}
	ts.Bottleneck = chainBottleneck(ts.Links)
	// A one-link chain with no parameters — "bn()"-style, since a bare
	// name without parens is a preset lookup — is the single topology;
	// canonicalize so it shares a key with "single" and "".
	if len(ts.Links) == 1 && ts.Links[0] == (LinkSpec{Name: ts.Links[0].Name}) {
		return topoPresets["single"].spec.clone(), nil
	}
	if err := validateTopoSpec(ts); err != nil {
		return TopoSpec{}, fmt.Errorf("netem: topology %q: %w", s, err)
	}
	return ts, nil
}

// chainBottleneck is the static µ-link guess for a freshly parsed chain:
// the (first) link deferring to the nominal rate, else the first link.
// A chain whose rates mix scales and absolute values cannot be ordered
// without knowing the nominal rate, so every consumer re-resolves with
// BottleneckAt; this static pick only anchors validation.
func chainBottleneck(links []LinkSpec) string {
	for _, l := range links {
		if l.RateMbps == 0 && l.RateScale == 0 {
			return l.Name
		}
	}
	return links[0].Name
}

// BottleneckAt returns the µ link given the scenario's nominal rate.
// Presets keep their declared bottleneck (rev-congested's reverse link
// is slower than its declared bottleneck on purpose — it carries ACKs,
// not the data direction). Chains resolve every rate against the nominal
// and pick the slowest link, preferring a nominal-inheriting link on
// ties (the "the unnamed rate is the bottleneck" convention).
func (ts TopoSpec) BottleneckAt(nominalBps float64) string {
	if ts.Preset != "" {
		return ts.Bottleneck
	}
	for _, l := range ts.Links {
		if l.RateMbps == 0 && l.RateScale == 0 {
			return l.Name
		}
	}
	best := ts.Links[0]
	for _, l := range ts.Links[1:] {
		if l.ResolveRate(nominalBps) < best.ResolveRate(nominalBps) {
			best = l
		}
	}
	return best.Name
}

func parseLinkSpec(seg string) (LinkSpec, error) {
	seg = strings.TrimSpace(seg)
	name := seg
	params := ""
	if i := strings.IndexByte(seg, '('); i >= 0 {
		if !strings.HasSuffix(seg, ")") {
			return LinkSpec{}, fmt.Errorf("link %q: missing closing parenthesis", seg)
		}
		name, params = seg[:i], seg[i+1:len(seg)-1]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if err := checkTopoToken(name, "link name"); err != nil {
		return LinkSpec{}, err
	}
	ls := LinkSpec{Name: name}
	for _, tok := range strings.Split(params, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		if tok == "" {
			continue
		}
		if _, ok := AQMByName(tok); ok {
			ls.AQM = tok
			continue
		}
		switch {
		// fluid= before the bare-rate case: its value also ends in "mbps".
		case strings.HasPrefix(tok, "fluid="):
			v := strings.TrimSuffix(strings.TrimPrefix(tok, "fluid="), "mbps")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return LinkSpec{}, fmt.Errorf("link %q: bad fluid load %q (want fluid=24mbps)", name, tok)
			}
			ls.FluidMbps = f
		case strings.HasSuffix(tok, "mbps"):
			v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "mbps"), 64)
			if err != nil || v <= 0 {
				return LinkSpec{}, fmt.Errorf("link %q: bad rate %q", name, tok)
			}
			ls.RateMbps = v
		case strings.HasPrefix(tok, "x"):
			v, err := strconv.ParseFloat(tok[1:], 64)
			if err != nil || v <= 0 {
				return LinkSpec{}, fmt.Errorf("link %q: bad rate scale %q", name, tok)
			}
			ls.RateScale = v
		case strings.HasSuffix(tok, "ms") && !strings.Contains(tok, "="):
			v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "ms"), 64)
			if err != nil || v < 0 {
				return LinkSpec{}, fmt.Errorf("link %q: bad delay %q", name, tok)
			}
			ls.DelayMs = v
		case strings.HasPrefix(tok, "buf="):
			v := strings.TrimSuffix(strings.TrimPrefix(tok, "buf="), "ms")
			b, err := strconv.ParseFloat(v, 64)
			if err != nil || b <= 0 {
				return LinkSpec{}, fmt.Errorf("link %q: bad buffer %q", name, tok)
			}
			ls.BufferMs = b
		case strings.HasPrefix(tok, "pattern="):
			pat := strings.TrimPrefix(tok, "pattern=")
			// Validate the pattern's syntax now with a probe rate, so a
			// typo fails at parse time rather than mid-sweep.
			if _, err := ParsePattern(pat, 1e6); err != nil {
				return LinkSpec{}, fmt.Errorf("link %q: %w", name, err)
			}
			ls.Pattern = pat
		default:
			return LinkSpec{}, fmt.Errorf("link %q: unknown parameter %q (want rate like 100mbps or x4, delay like 5ms, an AQM, buf=, pattern=, or fluid=)", name, tok)
		}
	}
	if ls.RateMbps > 0 && ls.RateScale > 0 {
		return LinkSpec{}, fmt.Errorf("link %q: both an absolute rate and a scale given", name)
	}
	return ls, nil
}

func validateTopoSpec(ts TopoSpec) error {
	if len(ts.Links) == 0 {
		return fmt.Errorf("no links")
	}
	names := map[string]bool{}
	for _, l := range ts.Links {
		if err := checkTopoToken(l.Name, "link name"); err != nil {
			return err
		}
		if names[l.Name] {
			return fmt.Errorf("duplicate link %q", l.Name)
		}
		names[l.Name] = true
	}
	if ts.Bottleneck == "" || !names[ts.Bottleneck] {
		return fmt.Errorf("bottleneck %q is not a declared link", ts.Bottleneck)
	}
	hasDefault := false
	routes := map[string]bool{}
	for _, r := range ts.Routes {
		if r.Name == "" {
			hasDefault = true
		} else if err := checkTopoToken(r.Name, "route name"); err != nil {
			return err
		}
		if routes[r.Name] {
			return fmt.Errorf("duplicate route %q", r.Name)
		}
		routes[r.Name] = true
		if len(r.Fwd) == 0 {
			return fmt.Errorf("route %q has no forward hops", r.Name)
		}
		for _, hop := range append(append([]string(nil), r.Fwd...), r.Rev...) {
			if !names[hop] {
				return fmt.Errorf("route %q references unknown link %q", r.Name, hop)
			}
		}
	}
	if !hasDefault {
		return fmt.Errorf("no default route")
	}
	return nil
}

// checkTopoToken enforces the token charset shared with scheme specs:
// lowercase letters, digits, and [-_.], starting with a letter or digit.
func checkTopoToken(s, what string) error {
	if s == "" {
		return fmt.Errorf("empty %s", what)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '_' || c == '.') && i > 0:
		default:
			return fmt.Errorf("bad %s %q: character %q not allowed", what, s, c)
		}
	}
	return nil
}

// CanonicalTopology parses a topology spec string and returns its
// canonical form for scenario keys: the empty string for the single
// (default) topology — so "", "single", and parameterless one-link
// chains like "bn()" all share the pre-topology scenario keys — and the
// preset name or formatted chain otherwise.
func CanonicalTopology(s string) (string, error) {
	ts, err := ParseTopology(s)
	if err != nil {
		return "", err
	}
	if ts.Single() {
		return "", nil
	}
	return ts.String(), nil
}
