package nimbus

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions, methods and struct fields
// under internal/ that no non-test code references, each with the reason it
// stays. Everything else without a caller is deleted, not listed here.
//
// The classes: (a) the facade's documented API, used by nimbus_test.go;
// (c) readers the planned trace recorder (ROADMAP item 3) needs; (d)
// instruments and reference oracles that tests use to check behaviour that
// stays.
var uncalledAllowed = map[string]string{
	"core.Detector.Elastic": "(a) the facade doc's Elasticity/Elastic pair; TestFacadeDetector",

	"core.Nimbus.Rates":                    "(c) S and R for the mode-switch explain record",
	"core.Nimbus.ZEstimate":                "(c) the cross-traffic estimate ẑ for the explain record",
	"crosstraffic.VideoClient.BufferLevel": "(c) per-flow video buffer series",
	"netem.Link.Busy":                      "(c) link-busy fraction of the detector window",
	"netem.Link.FluidRate":                 "(c) per-link fluid cross-traffic rate series",
	"netem.PIE.DropProb":                   "(c) per-link PIE drop probability series",
	"workload.Generator.ActiveFlows":       "(c) per-cell active-session series",

	"fault.Enabled":                       "(d) tests check that Reset disarms every failpoint",
	"fault.Reset":                         "(d) tests clear the failpoint table between cases",
	"fft.FFT":                             "(d) textbook transform Plan.Transform is held to bit for bit",
	"metrics.AccuracyTracker.TotalScored": "(d) tests check how many ticks a cell scored",
	"netem.Topology.Flows":                "(d) tests check that stopped flows detach",
	"netem.Topology.FreePackets":          "(d) tests check that every packet returns to the pool",
	"scheme.Spec.Equal":                   "(d) tests compare parsed and canonical scheme specs",
	"sim.Scheduler.FreeTimers":            "(d) tests check that pooled timers are recycled",
	"sim.Scheduler.Pending":               "(d) tests hold the timer wheel's queue length to a reference heap",
	"stats.Percentiles":                   "(d) oracle metrics_test holds the merged delay summaries to",
	"stats.PercentilesSorted":             "(d) oracle metrics_test holds the merged delay summaries to",
	"svc.Client.Cancel":                   "(d) tests drive DELETE /jobs/{id} through the client",
	"svc.Client.Results":                  "(d) tests decode GET /jobs/{id}/results through the client",
	"svc.Store.Get":                       "(d) tests read the cache tiers without running a cell",
	"transport.FiniteFlow.Done":           "(d) tests check that finite transfers complete",
	"transport.Sender.Inflight":           "(d) tests check that in-flight bytes settle to zero",
}

// TestNoUncalledAPI type-checks the non-test packages of this module and of
// benchmark/ and fails on any exported function, method or struct field
// declared under internal/ that none of them references and that
// uncalledAllowed does not list. A method that satisfies an interface
// counts as referenced.
func TestNoUncalledAPI(t *testing.T) {
	if raceEnabled {
		// A static check starts no goroutine, so the race detector has
		// nothing to watch; it only makes type-checking about 5x slower.
		t.Skip("static check: runs without -race")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("needs the go command to list packages")
	}
	uncalled := map[string]bool{}
	for _, name := range uncalledAPI(t) {
		uncalled[name] = true
		if _, ok := uncalledAllowed[name]; !ok {
			t.Errorf("%s has no non-test caller: delete it, or list it in uncalledAllowed with its reason", name)
		}
	}
	for name := range uncalledAllowed {
		if !uncalled[name] {
			t.Errorf("uncalledAllowed lists %s, which is gone or now has a caller: drop the entry", name)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList returns the non-test packages of the module in dir with all their
// dependencies, each after the packages it imports.
func goList(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter hands out the packages already checked here and leaves the
// standard library to the source importer.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// uncalledAPI returns, sorted, every exported function, method and struct
// field under internal/ without a reference from non-test code, named
// "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field".
func uncalledAPI(t *testing.T) []string {
	fset := token.NewFileSet()
	imp := moduleImporter{importer.ForCompiler(fset, "source", nil), map[string]*types.Package{}}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	var internal []*types.Package
	for _, dir := range []string{".", "benchmark"} {
		for _, lp := range goList(t, dir) {
			if lp.Standard || imp.checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			imp.checked[lp.ImportPath] = pkg
			for _, obj := range info.Uses {
				used[origin(obj)] = true
				// A call through an interface names the interface's
				// method; any concrete method it may dispatch to is used.
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if it, ok := recv.Type().Underlying().(*types.Interface); ok {
							ifaces[it] = true
						}
					}
				}
			}
			if strings.HasPrefix(lp.ImportPath, "nimbus/internal/") {
				internal = append(internal, pkg)
			}
		}
	}
	addNamedInterfaces(ifaces, imp.checked)

	var out []string
	for _, pkg := range internal {
		short := strings.TrimPrefix(pkg.Path(), "nimbus/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, short+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfies(named, m.Name(), ifaces) {
						out = append(out, short+"."+name+"."+m.Name())
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					// An embedded field is used through what it promotes.
					f := st.Field(i)
					if f.Exported() && !f.Embedded() && !used[f] {
						out = append(out, short+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addNamedInterfaces adds error and every package-level interface type
// declared in pkgs and in the standard-library packages they import.
func addNamedInterfaces(ifaces map[*types.Interface]bool, pkgs map[string]*types.Package) {
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
}

// satisfies reports whether named (or its pointer) implements an interface
// that has a method called method.
func satisfies(named *types.Named, method string, ifaces map[*types.Interface]bool) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for it := range ifaces {
		if it.IsImplicit() {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
