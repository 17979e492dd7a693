package exp

import (
	"fmt"

	"nimbus/internal/crosstraffic"
	"nimbus/internal/netem"
	"nimbus/internal/runner"
	spec "nimbus/internal/scheme"
	"nimbus/internal/workload"
)

// CanonicalGrid validates every spec-valued axis of a grid — schemes,
// flow mixes, churn, topology, fluid; base value and list alike — and
// the cross-traffic kinds and AQM names, and returns the grid with each
// spec in its canonical spelling. Those
// strings enter Scenario.Key() verbatim, so this is what makes two
// spellings of one sweep ("single" and "", "bulk(load=24.0)" and
// "bulk(load=24)", "nimbus + cubic" and "nimbus+cubic", "nimbus" and
// "nimbus(pulse=0.25)") one set of keys, seeds, results and cache
// entries. Every path that builds a grid from user input (nimbus-sim
// flags, nimbus-bench -grid, POST /jobs) calls it before Expand, and
// nothing else canonicalizes an axis. The empty string is every axis's
// default and passes through. The error names the offending axis by its
// JSON field. g's lists are not modified.
func CanonicalGrid(g runner.Grid) (runner.Grid, error) {
	schemes := append([]spec.Spec{g.Base.Scheme}, g.Schemes...)
	for i, sp := range schemes {
		if sp.Zero() {
			continue // no scheme under test: a flow-mix grid, or a base the list overrides
		}
		c, err := spec.Canonical(sp)
		if err != nil {
			return g, fmt.Errorf("exp: grid %s: %w", baseOrList(i, "base.scheme", "schemes"), err)
		}
		schemes[i] = c
	}
	g.Base.Scheme = schemes[0]
	if len(schemes) > 1 {
		g.Schemes = schemes[1:]
	}
	for _, ax := range []struct {
		baseName, listName string
		base               *string
		list               *[]string
		canon              func(string) (string, error)
	}{
		{"base.flow_mix", "flow_mixes", &g.Base.FlowMix, &g.FlowMixes, canonicalFlowMix},
		{"base.churn", "churns", &g.Base.Churn, &g.Churns, reformat(workload.ParseSpec)},
		{"base.topology", "topologies", &g.Base.Topology, &g.Topologies, netem.CanonicalTopology},
		{"base.fluid_cross", "fluids", &g.Base.FluidCross, &g.Fluids, reformat(crosstraffic.ParseFluidSpec)},
	} {
		vals := append([]string{*ax.base}, *ax.list...)
		for i, v := range vals {
			if v == "" {
				continue
			}
			c, err := ax.canon(v)
			if err != nil {
				return g, fmt.Errorf("exp: grid %s: %w", baseOrList(i, ax.baseName, ax.listName), err)
			}
			vals[i] = c
		}
		*ax.base = vals[0]
		if len(vals) > 1 {
			*ax.list = vals[1:]
		}
	}
	// Cross kinds and AQMs have one spelling each, so they are checked,
	// not rewritten ("" and "none", "" and "droptail" stay two keys, as
	// they always were).
	for i, c := range append([]runner.Cross{{Kind: g.Base.Cross}}, g.Crosses...) {
		if _, ok := crosstraffic.KindByName(c.Kind); !ok {
			return g, fmt.Errorf("exp: grid %s: unknown cross traffic kind %q (have %s)",
				baseOrList(i, "base.cross", "crosses[].kind"), c.Kind, crosstraffic.KindNames(nil))
		}
	}
	for i, aqm := range append([]string{g.Base.AQM}, g.AQMs...) {
		if _, ok := netem.AQMByName(aqm); !ok {
			return g, fmt.Errorf("exp: grid %s: unknown AQM %q (have %s)",
				baseOrList(i, "base.aqm", "aqms"), aqm, netem.AQMNames(", "))
		}
	}
	return g, nil
}

// baseOrList names the grid field value i of a base-then-list slice came
// from.
func baseOrList(i int, base, list string) string {
	if i == 0 {
		return base
	}
	return list
}

// canonicalFlowMix checks the mix syntax and re-spells every item's
// scheme spec.
func canonicalFlowMix(mix string) (string, error) {
	fss, err := ParseFlowMix(mix)
	if err != nil {
		return "", err
	}
	for i := range fss {
		if fss[i].Scheme, err = spec.Canonical(fss[i].Scheme); err != nil {
			return "", err
		}
	}
	return FormatFlowMix(fss), nil
}

// reformat is the canonicalizer of a spec type whose String is its
// canonical spelling.
func reformat[T fmt.Stringer](parse func(string) (T, error)) func(string) (string, error) {
	return func(s string) (string, error) {
		v, err := parse(s)
		if err != nil {
			return "", err
		}
		return v.String(), nil
	}
}
