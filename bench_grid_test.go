package nimbus

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
)

// TestBenchGridIsTheSnapshot: BENCH_grid.json, the canonical sweep, is
// already in canonical spelling, and it expands to the 24 cells of
// BENCH_runner.json, its committed result, in order: same names, scenario
// keys and run seeds. scripts/check_sweeps.sh runs the grid and compares
// every byte but wall_sec; benchmark/'s sweep_canonical is pinned to the
// same rows by TestSweepCanonicalIsTheBenchGrid.
func TestBenchGridIsTheSnapshot(t *testing.T) {
	f, err := os.Open("BENCH_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var g runner.Grid
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		t.Fatal(err)
	}
	canon, err := exp.CanonicalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon, g) {
		t.Fatalf("BENCH_grid.json is not canonical:\n file: %+v\ncanon: %+v", g, canon)
	}

	b, err := os.ReadFile("BENCH_runner.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []runner.Result
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	scs := g.Expand()
	if len(scs) != 24 || len(rows) != 24 {
		t.Fatalf("BENCH_grid.json expands to %d cells, BENCH_runner.json has %d rows, want 24", len(scs), len(rows))
	}
	for i, sc := range scs {
		want := rows[i].Scenario
		if sc.Name != want.Name || sc.Key() != want.Key() || sc.RunSeed != want.RunSeed {
			t.Errorf("cell %d: %s %s (run seed %d), BENCH_runner.json has %s %s (run seed %d)",
				i, sc.Name, sc.Key(), sc.RunSeed, want.Name, want.Key(), want.RunSeed)
		}
	}
}
