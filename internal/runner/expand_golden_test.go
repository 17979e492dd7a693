package runner

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nimbus/internal/scheme"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/expand_golden.txt from the current Grid.Expand")

// goldenGrids are the expansions pinned cell by cell. The two all-axes
// grids give every axis two values (a grid cannot sweep schemes and flow
// mixes at once, so there is one of each), so any change to the axis
// order, a label format, the key or the seed derivation moves some line;
// the collapse grids are Expand's one special case (flow mixes drop the
// scheme axis), from the list and from the base.
func goldenGrids() []struct {
	name string
	g    Grid
} {
	base := Scenario{
		RateMbps: 96, RTTms: 50, BufferMs: 100, PIETargetMs: 15,
		CrossRTTms: 80, DurationSec: 30, Seed: 1,
	}
	all := Grid{
		Base:         base,
		RatesMbps:    []float64{48, 96},
		LinkTraces:   []string{"", "cell-ramp"},
		RatePatterns: []string{"", "step:6:24:2000"},
		Topologies:   []string{"", "access-hop"},
		RTTsMs:       []float64{20, 50},
		BuffersMs:    []float64{50, 100},
		AQMs:         []string{"droptail", "pie"},
		Schemes:      scheme.Specs("nimbus(pulse=0.125,mu=est)", "cubic"),
		Churns:       []string{"", "bulk(load=24)"},
		Crosses:      []Cross{{Kind: "none"}, {Kind: "poisson", RateMbps: 48}},
		Fluids:       []string{"", "dt=5ms"},
		Seeds:        []int64{1, 2},
	}
	allMix := all
	allMix.FlowMixes = []string{"nimbus+cubic", "nimbus*2+cubic@10"}
	return []struct {
		name string
		g    Grid
	}{
		{"all-axes", all},
		{"all-axes-mix", allMix},
		{"mix-collapse", Grid{
			Base:      base,
			Schemes:   scheme.Specs("nimbus", "cubic"),
			FlowMixes: []string{"nimbus+cubic", "nimbus*2+bbr"},
			RatesMbps: []float64{48, 96},
		}},
		{"base-mix-collapse", Grid{
			Base:    Scenario{FlowMix: "nimbus+cubic", RateMbps: 96, RTTms: 50, DurationSec: 10, Seed: 3},
			Schemes: scheme.Specs("nimbus", "cubic"),
		}},
		{"one-cell", Grid{Base: Scenario{Scheme: scheme.New("copa"), RateMbps: 96, RTTms: 50, DurationSec: 10, Seed: 4}}},
	}
}

// goldenStride is how many cells apart the all-axes grid's literal lines
// are: prime, so the sample walks through every axis's values. The
// digest covers every line in order; the sample is what makes a mismatch
// readable.
const goldenStride = 257

func renderGolden() string {
	var b strings.Builder
	for _, gg := range goldenGrids() {
		scs := gg.g.Expand()
		h := sha256.New()
		var sample []string
		for i, sc := range scs {
			line := fmt.Sprintf("%d\t%s\t%s\t%d", i, sc.Name, sc.Key(), sc.RunSeed)
			fmt.Fprintln(h, line)
			if len(scs) <= 64 || i%goldenStride == 0 || i == len(scs)-1 {
				sample = append(sample, line)
			}
		}
		fmt.Fprintf(&b, "# %s: %d cells, sha256 of all lines %x\n", gg.name, len(scs), h.Sum(nil))
		for _, l := range sample {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// TestExpandGolden pins Name, Key() and RunSeed of every cell, in
// expansion order, to what the hand-written 13-deep loop nest produced
// before Expand was derived from the axes table.
func TestExpandGolden(t *testing.T) {
	const path = "testdata/expand_golden.txt"
	got := renderGolden()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "(end of file)"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("expansion differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("expansion is a prefix of %s: got %d lines, want %d", path, len(gl), len(wl))
}
