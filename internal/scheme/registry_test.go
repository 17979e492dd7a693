package scheme_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	// Importing the implementation packages runs their init-time
	// registrations — the same way every binary gets its registry.
	_ "nimbus/internal/cc"
	_ "nimbus/internal/core"
	"nimbus/internal/scheme"
	"nimbus/internal/transport"
)

const testMuBps = 96e6

func TestRegistryNonEmpty(t *testing.T) {
	want := []string{
		"bbr", "compound", "copa", "copa-default", "cubic", "fixedwindow",
		"nimbus", "nimbus-competitive", "nimbus-copa", "nimbus-delay",
		"nimbus-reno", "nimbus-vegas", "reno", "vegas", "vivace",
	}
	got := scheme.Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registered schemes = %v, want %v", got, want)
	}
}

// TestEverySchemeRoundTripsAndBuilds is the registry's contract: each
// registered scheme parses from its bare name, round-trips through the
// canonical string form with every parameter made explicit, constructs
// successfully with defaults, and rejects unknown and mistyped
// parameters.
func TestEverySchemeRoundTripsAndBuilds(t *testing.T) {
	for _, info := range scheme.List() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			if info.Doc == "" {
				t.Error("registered without a doc string")
			}

			// Bare name round-trips.
			sp, err := scheme.Parse(info.Name)
			if err != nil {
				t.Fatalf("name does not parse: %v", err)
			}
			if sp.String() != info.Name {
				t.Fatalf("canonical form of bare name = %q", sp.String())
			}

			// Defaults construct.
			ctrl, err := scheme.Build(sp, scheme.BuildContext{MuBps: testMuBps})
			if err != nil {
				t.Fatalf("Build with defaults: %v", err)
			}
			if ctrl == nil {
				t.Fatal("Build returned nil controller")
			}

			// Every parameter, set explicitly to its default, still parses,
			// round-trips, and builds.
			full := sp
			for _, p := range info.Params {
				full = full.With(p.Name, p.Default)
			}
			reparsed, err := scheme.Parse(full.String())
			if err != nil {
				t.Fatalf("explicit-params form %q does not parse: %v", full, err)
			}
			if !reparsed.Equal(full) {
				t.Fatalf("round trip changed spec: %q vs %q", full, reparsed)
			}
			if _, err := scheme.Build(reparsed, scheme.BuildContext{MuBps: testMuBps}); err != nil {
				t.Fatalf("Build with explicit defaults: %v", err)
			}

			// ...and is one scheme with the bare name: the canonical
			// spelling drops every parameter that equals its default.
			if c, err := scheme.Canonical(reparsed); err != nil || c.String() != info.Name {
				t.Fatalf("Canonical(%q) = %q (err %v), want %q", reparsed, c, err, info.Name)
			}

			// Unknown parameters are rejected.
			if _, err := scheme.Build(sp.With("no_such_param", scheme.Num(1)), scheme.BuildContext{MuBps: testMuBps}); err == nil {
				t.Error("unknown parameter was accepted")
			}

			// Kind mismatches are rejected.
			for _, p := range info.Params {
				wrong := scheme.Str("x")
				if p.Kind == scheme.KindString {
					wrong = scheme.Num(1)
				}
				if _, err := scheme.Build(sp.With(p.Name, wrong), scheme.BuildContext{MuBps: testMuBps}); err == nil {
					t.Errorf("param %s accepted a %s value", p.Name, wrong.Kind)
				}
			}

			// Enum violations are rejected.
			for _, p := range info.Params {
				if len(p.Enum) > 0 {
					if _, err := scheme.Build(sp.With(p.Name, scheme.Str("bogus-enum")), scheme.BuildContext{MuBps: testMuBps}); err == nil {
						t.Errorf("enum param %s accepted an out-of-set value", p.Name)
					}
				}
			}
		})
	}
}

func TestBuildUnknownScheme(t *testing.T) {
	if _, err := scheme.Build(scheme.MustParse("quic"), scheme.BuildContext{MuBps: testMuBps}); err == nil {
		t.Fatal("unknown scheme built successfully")
	}
}

// TestValidateConstructsNothing: Validate and Build reject the same
// specs — the range checks live on the Param declarations, not in the
// factories — and Validate gets there without building a controller
// (the daemon validates every scheme of every submitted grid).
func TestValidateConstructsNothing(t *testing.T) {
	ctx := scheme.BuildContext{MuBps: testMuBps}
	for _, bad := range []string{
		"nimbus(pulse=0)", "nimbus(pulse=-0.1)", "nimbus-delay(fp=-1)",
		"copa(delta=0)", "copa-default(delta=-1)",
		"fixedwindow(cwnd=0)", "fixedwindow(cwnd=2.5)", "fixedwindow(cwnd=-3)",
	} {
		sp := scheme.MustParse(bad)
		verr := scheme.Validate(sp)
		_, berr := scheme.Build(sp, ctx)
		if verr == nil || berr == nil || verr.Error() != berr.Error() {
			t.Errorf("%s: Validate: %v; Build: %v; want the same error from both", bad, verr, berr)
		}
		if _, err := scheme.Canonical(sp); err == nil {
			t.Errorf("Canonical(%s) accepted an out-of-range parameter", bad)
		}
	}
	for _, good := range []string{"nimbus(pulse=0.1,fp=0)", "copa(delta=0.1)", "fixedwindow(cwnd=1)"} {
		sp := scheme.MustParse(good)
		if err := scheme.Validate(sp); err != nil {
			t.Errorf("Validate(%s): %v", good, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = scheme.Validate(sp) }); allocs != 0 {
			t.Errorf("Validate(%s) allocates %.0f times; it must build nothing", good, allocs)
		}
	}
}

// TestRegisterRejectsDefaultOutOfRange: a default its own Check rejects
// is a malformed declaration.
func TestRegisterRejectsDefaultOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register accepted a default outside the parameter's range")
		}
	}()
	scheme.Register("bad-default-test", "doc",
		[]scheme.Param{{Name: "v", Kind: scheme.KindFloat, Default: scheme.Num(0), Check: scheme.Positive}},
		func(scheme.BuildContext, scheme.Args) (transport.Controller, error) { return nil, nil })
}

// controllerConstructors maps every exported New* constructor in
// internal/cc and internal/core that returns a congestion controller to
// the registered scheme(s) that construct it. Helper constructors that do
// not return a transport.Controller are listed as exempt.
//
// TestEveryControllerRegistered walks both packages' sources: if you add
// a controller constructor, this test fails until you either register a
// scheme for it (scheme.Register in the package's register.go) and map it
// here, or consciously exempt it.
var controllerConstructors = map[string]string{
	// internal/cc
	"NewCubic":           "cubic",
	"NewReno":            "reno",
	"NewVegas":           "vegas",
	"NewCopa":            "copa",
	"NewCopaDefaultMode": "copa-default",
	"NewBBR":             "bbr",
	"NewVivace":          "vivace",
	"NewCompound":        "compound",
	"NewFixedWindow":     "fixedwindow",
	// internal/core
	"NewNimbus": "nimbus", // the whole nimbus-* family goes through it
	// Exempt: not congestion controllers.
	"NewRateEstimator":  "",
	"NewDetector":       "",
	"NewMaxReceiveRate": "",
}

func TestEveryControllerRegistered(t *testing.T) {
	for _, dir := range []string{"../cc", "../core"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for file, f := range pkg.Files {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "New") {
						continue
					}
					schemeName, known := controllerConstructors[fn.Name.Name]
					if !known {
						t.Errorf("%s: constructor %s is not mapped in controllerConstructors: register a scheme for it (see %s/register.go) and add the mapping, or exempt it",
							dir, fn.Name.Name, dir)
						continue
					}
					if schemeName == "" {
						continue // exempt helper
					}
					if _, ok := scheme.Lookup(schemeName); !ok {
						t.Errorf("constructor %s maps to scheme %q which is not registered", fn.Name.Name, schemeName)
					}
				}
			}
		}
	}
}

func TestRegisterRejectsAmbiguousStringValues(t *testing.T) {
	for _, bad := range []scheme.Param{
		{Name: "v", Kind: scheme.KindString, Default: scheme.Str("1")},
		{Name: "v", Kind: scheme.KindString, Default: scheme.Str("true")},
		{Name: "v", Kind: scheme.KindString, Default: scheme.Str("a"), Enum: []string{"a", "2"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted ambiguous string value %+v", bad)
				}
			}()
			scheme.Register("ambiguous-test", "doc", []scheme.Param{bad}, func(scheme.BuildContext, scheme.Args) (transport.Controller, error) {
				return nil, nil
			})
		}()
	}
}
