package scheme

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"nimbus/internal/sim"
	"nimbus/internal/transport"
)

// Param declares one typed parameter of a registered scheme: its kind,
// default, allowed values and doc string. Validate and Build check every
// explicit Spec parameter against these declarations, so a typo'd,
// mistyped or out-of-range parameter is an error, not a silent default.
type Param struct {
	Name    string
	Kind    Kind
	Default Value
	// Enum, for KindString params, restricts the value to this set.
	Enum []string
	// Check, for KindFloat params, rejects out-of-range values; the error
	// says what the value must be ("must be > 0"). Declaring the range
	// here rather than testing it in the factory is what lets Validate
	// answer without constructing a controller.
	Check func(v float64) error
	Doc   string
}

// Positive is the Check of a parameter that must be greater than zero.
func Positive(v float64) error {
	if v <= 0 {
		return errors.New("must be > 0")
	}
	return nil
}

// MuEstimator mirrors core.MuEstimator structurally so implementation
// packages can self-register without this package importing them.
type MuEstimator interface {
	Observe(now sim.Time, rateBps float64)
	Mu() float64
}

// BuildContext carries the run-time wiring a factory may need beyond its
// declared parameters.
type BuildContext struct {
	// MuBps is the nominal bottleneck rate, for schemes whose µ oracle
	// needs the true link rate.
	MuBps float64
	// Mu, when non-nil, is the environment's true-rate µ source. Rigs
	// with time-varying links pass a link oracle here: a fixed-rate
	// oracle would hand the controller a stale µ the moment the capacity
	// moves. Factories use it for oracle-µ configurations only — a spec
	// that explicitly asks for an estimator keeps the estimator.
	Mu MuEstimator
}

// Args are a factory's resolved parameters: declared defaults overlaid
// with the spec's explicit values, kind-checked. The typed getters panic
// on an undeclared name — that is a factory bug, not user input.
type Args struct{ vals map[string]Value }

func (a Args) get(name string, k Kind) Value {
	v, ok := a.vals[name]
	if !ok || v.Kind != k {
		panic(fmt.Sprintf("scheme: factory read undeclared or mistyped %s param %q", k, name))
	}
	return v
}

// Float returns a declared float parameter.
func (a Args) Float(name string) float64 { return a.get(name, KindFloat).Num }

// Bool returns a declared bool parameter.
func (a Args) Bool(name string) bool { return a.get(name, KindBool).Bool }

// Str returns a declared string parameter.
func (a Args) Str(name string) string { return a.get(name, KindString).Str }

// Factory constructs a scheme's controller from its resolved parameters.
type Factory func(ctx BuildContext, args Args) (transport.Controller, error)

type entry struct {
	name    string
	doc     string
	params  []Param // sorted by name
	byName  map[string]Param
	factory Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]*entry{}
)

// Register adds a scheme to the registry. It panics on a duplicate name
// or a malformed declaration — registration runs from init functions, so
// any failure is a programming error caught by the first test that
// imports the package.
func Register(name, doc string, params []Param, factory Factory) {
	if err := checkToken(name, "scheme name"); err != nil {
		panic("scheme: Register: " + err.Error())
	}
	if factory == nil {
		panic("scheme: Register(" + name + "): nil factory")
	}
	e := &entry{name: name, doc: doc, factory: factory, byName: make(map[string]Param, len(params))}
	for _, p := range params {
		if err := checkToken(p.Name, "parameter name"); err != nil {
			panic("scheme: Register(" + name + "): " + err.Error())
		}
		if _, dup := e.byName[p.Name]; dup {
			panic("scheme: Register(" + name + "): duplicate param " + p.Name)
		}
		if p.Default.Kind != p.Kind {
			panic(fmt.Sprintf("scheme: Register(%s): param %s declared %s but default is %s",
				name, p.Name, p.Kind, p.Default.Kind))
		}
		if len(p.Enum) > 0 {
			if p.Kind != KindString {
				panic(fmt.Sprintf("scheme: Register(%s): param %s has an enum but kind %s", name, p.Name, p.Kind))
			}
			if !contains(p.Enum, p.Default.Str) {
				panic(fmt.Sprintf("scheme: Register(%s): param %s default %q not in enum %v",
					name, p.Name, p.Default.Str, p.Enum))
			}
		}
		if p.Check != nil {
			if p.Kind != KindFloat {
				panic(fmt.Sprintf("scheme: Register(%s): param %s has a range check but kind %s", name, p.Name, p.Kind))
			}
			if err := p.Check(p.Default.Num); err != nil {
				panic(fmt.Sprintf("scheme: Register(%s): param %s default: %v", name, p.Name, err))
			}
		}
		// String values must survive the canonical round trip: a payload
		// the parser would reclassify ("1", "true") could never be set
		// from a spec string, and would break Spec.String()/Key()
		// stability for specs built in code.
		if p.Kind == KindString {
			for _, s := range append([]string{p.Default.Str}, p.Enum...) {
				if v, err := parseValue(s); err != nil || v.Kind != KindString {
					panic(fmt.Sprintf("scheme: Register(%s): param %s string value %q would re-parse as a %s — pick a non-numeric, non-boolean token",
						name, p.Name, s, v.Kind))
				}
			}
		}
		e.byName[p.Name] = p
		e.params = append(e.params, p)
	}
	sort.Slice(e.params, func(i, j int) bool { return e.params[i].Name < e.params[j].Name })
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("scheme: Register: duplicate scheme " + name)
	}
	registry[name] = e
}

// lookup resolves the spec's name in the registry and checks every
// explicit parameter against the declarations: unknown names, kind
// mismatches, enum violations, non-finite floats and values a Check
// rejects are errors.
func lookup(sp Spec) (*entry, error) {
	regMu.RLock()
	e, ok := registry[sp.Name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q (known: %s)", sp.Name, strings.Join(Names(), ", "))
	}
	for k, v := range sp.Params {
		decl, ok := e.byName[k]
		if !ok {
			return nil, fmt.Errorf("scheme: %s has no parameter %q (has: %s)", sp.Name, k, paramNames(e))
		}
		if v.Kind != decl.Kind {
			return nil, fmt.Errorf("scheme: %s parameter %q wants %s, got %s %q", sp.Name, k, decl.Kind, v.Kind, v)
		}
		if decl.Kind == KindFloat && (math.IsNaN(v.Num) || math.IsInf(v.Num, 0)) {
			return nil, fmt.Errorf("scheme: %s parameter %q must be finite", sp.Name, k)
		}
		if len(decl.Enum) > 0 && !contains(decl.Enum, v.Str) {
			return nil, fmt.Errorf("scheme: %s parameter %q must be one of %s, got %q",
				sp.Name, k, strings.Join(decl.Enum, "|"), v.Str)
		}
		if decl.Check != nil {
			if err := decl.Check(v.Num); err != nil {
				return nil, fmt.Errorf("scheme: %s parameter %q %w, got %s", sp.Name, k, err, v)
			}
		}
	}
	return e, nil
}

// Build constructs the controller a spec describes: it checks the spec as
// Validate does, overlays the explicit parameters on the declared
// defaults, and calls the factory.
func Build(sp Spec, ctx BuildContext) (transport.Controller, error) {
	e, err := lookup(sp)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]Value, len(e.params))
	for _, p := range e.params {
		vals[p.Name] = p.Default
	}
	for k, v := range sp.Params {
		vals[k] = v
	}
	ctrl, err := e.factory(ctx, Args{vals: vals})
	if err != nil {
		return nil, fmt.Errorf("scheme: building %s: %w", sp, err)
	}
	if ctrl == nil {
		return nil, fmt.Errorf("scheme: factory for %s returned no controller", sp.Name)
	}
	return ctrl, nil
}

// Validate checks a spec against the registry without building anything:
// the name is registered and every explicit parameter is declared, of the
// right kind and in range. CLIs and the daemon use it to reject a sweep
// before it starts instead of producing one error row per cell.
func Validate(sp Spec) error {
	_, err := lookup(sp)
	return err
}

// Canonical validates a spec and returns it in the one spelling scenario
// keys use: parameters equal to their declared default are dropped, so
// "nimbus(pulse=0.25)" and "nimbus" are the same scheme under the same
// key. sp's parameter map is not modified.
func Canonical(sp Spec) (Spec, error) {
	e, err := lookup(sp)
	if err != nil {
		return Spec{}, err
	}
	out := Spec{Name: sp.Name}
	for k, v := range sp.Params {
		if v == e.byName[k].Default {
			continue
		}
		if out.Params == nil {
			out.Params = make(map[string]Value, len(sp.Params))
		}
		out.Params[k] = v
	}
	return out, nil
}

// Info describes a registered scheme for listings and docs.
type Info struct {
	Name   string
	Doc    string
	Params []Param // sorted by name
}

// Lookup returns the registration info for one scheme.
func Lookup(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return Info{}, false
	}
	return Info{Name: e.name, Doc: e.doc, Params: append([]Param(nil), e.params...)}, true
}

// HasParam reports whether a registered scheme declares the parameter.
func HasParam(name, param string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return false
	}
	_, ok = e.byName[param]
	return ok
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// List returns the info for every registered scheme, sorted by name.
func List() []Info {
	names := Names()
	out := make([]Info, 0, len(names))
	for _, n := range names {
		info, _ := Lookup(n)
		out = append(out, info)
	}
	return out
}

// FormatList renders the registry as the text -list schemes prints: one
// line per scheme, then one indented line per parameter with its type,
// default, and doc.
func FormatList() string {
	var b strings.Builder
	for _, info := range List() {
		fmt.Fprintf(&b, "%-20s %s\n", info.Name, info.Doc)
		for _, p := range info.Params {
			typ := p.Kind.String()
			if len(p.Enum) > 0 {
				typ = strings.Join(p.Enum, "|")
			}
			fmt.Fprintf(&b, "  %-12s %-22s default=%-8s %s\n", p.Name, typ, p.Default, p.Doc)
		}
	}
	return b.String()
}

func paramNames(e *entry) string {
	if len(e.params) == 0 {
		return "none"
	}
	names := make([]string, len(e.params))
	for i, p := range e.params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
