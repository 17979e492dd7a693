package crosstraffic

import "strings"

// Kind declares one named cross-traffic kind (runner.Scenario.Cross,
// nimbus-sim -cross). Kinds is the only list of them: exp.AddCrossOn's
// validation, exp.BuildScenario's ground truth, HasFluidModel, NewFluid's
// guard, exp.CanonicalGrid and the -cross help text all read it, and
// scripts/check_docs.sh holds docs/experiments.md's table (which also
// says what each kind starts) to it.
type Kind struct {
	Name string
	// Elastic is the ground truth a detector's mode decision is scored
	// against: does the kind back off under congestion.
	Elastic bool
	// Fluid marks kinds with a rate-process model (Fluid); the others
	// always run exact per-packet, whatever the fluid spec says.
	Fluid bool
}

// Kinds lists every cross-traffic kind, one per line (check_docs.sh
// reads the lines).
var Kinds = []Kind{
	{Name: "none", Elastic: false, Fluid: false},
	{Name: "cubic", Elastic: true, Fluid: true},
	{Name: "reno", Elastic: true, Fluid: true},
	{Name: "poisson", Elastic: false, Fluid: true},
	{Name: "cbr", Elastic: false, Fluid: true},
	{Name: "trace", Elastic: true, Fluid: false},
	{Name: "video4k", Elastic: false, Fluid: false},
	{Name: "video1080p", Elastic: false, Fluid: false},
}

// KindByName looks a kind up; the empty name is "none".
func KindByName(name string) (Kind, bool) {
	if name == "" {
		name = "none"
	}
	for _, k := range Kinds {
		if k.Name == name {
			return k, true
		}
	}
	return Kind{}, false
}

// KindNames returns the names of the kinds keep accepts (every kind when
// keep is nil), comma-separated in table order, for help and error text.
func KindNames(keep func(Kind) bool) string {
	var names []string
	for _, k := range Kinds {
		if keep == nil || keep(k) {
			names = append(names, k.Name)
		}
	}
	return strings.Join(names, ", ")
}

// HasFluidModel reports whether a cross-traffic kind has a fluid
// approximation.
func HasFluidModel(kind string) bool {
	k, _ := KindByName(kind)
	return k.Fluid
}
