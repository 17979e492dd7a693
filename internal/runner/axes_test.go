package runner

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nimbus/internal/scheme"
)

// scalarOnly lists the Scenario fields no axis sweeps: every cell takes
// them from Grid.Base (or, for Name and RunSeed, Expand derives them).
var scalarOnly = map[string]bool{
	"Name":        true,
	"PIETargetMs": true,
	"CrossRTTms":  true,
	"DurationSec": true,
	"RunSeed":     true,
}

// probeValue returns the i-th (0 or 1) of two distinct non-zero values of
// a Scenario or Grid-list element type.
func probeValue(t *testing.T, typ reflect.Type, i int) reflect.Value {
	t.Helper()
	v := reflect.New(typ).Elem()
	switch {
	case typ == reflect.TypeOf(scheme.Spec{}):
		v.Set(reflect.ValueOf(scheme.New(fmt.Sprintf("probe%d", i))))
	case typ == reflect.TypeOf(Cross{}):
		v.Set(reflect.ValueOf(Cross{Kind: fmt.Sprintf("probe%d", i), RateMbps: float64(i + 1)}))
	case typ.Kind() == reflect.String:
		v.SetString(fmt.Sprintf("probe%d", i))
	case typ.Kind() == reflect.Float64:
		v.SetFloat(123.5 + float64(i))
	case typ.Kind() == reflect.Int64:
		v.SetInt(int64(987 + i))
	default:
		t.Fatalf("type %s: teach probeValue how to make one", typ)
	}
	return v
}

// TestAxesCoverGrid is the structural twin of TestKeyCoversEveryField:
// every list of Grid is read by exactly one row of the axes table, and
// every Scenario field is written by exactly one row or consciously
// listed as scalar-only. Adding a Grid list or a Scenario field without
// an axes row (or an exemption) fails here, not in a sweep that silently
// ignores the new axis.
func TestAxesCoverGrid(t *testing.T) {
	gridType := reflect.TypeOf(Grid{})
	var full Grid // every list holds two probe values
	lists := 0
	for i := 0; i < gridType.NumField(); i++ {
		f := gridType.Field(i)
		if f.Type.Kind() != reflect.Slice {
			if f.Name != "Base" {
				t.Errorf("Grid.%s is neither Base nor an axis list", f.Name)
			}
			continue
		}
		lists++
		two := reflect.MakeSlice(f.Type, 2, 2)
		two.Index(0).Set(probeValue(t, f.Type.Elem(), 0))
		two.Index(1).Set(probeValue(t, f.Type.Elem(), 1))
		reflect.ValueOf(&full).Elem().Field(i).Set(two)

		var g Grid // only this list is set
		reflect.ValueOf(&g).Elem().Field(i).Set(two)
		var readers []string
		for j, a := range axes {
			if a.n(&g) == 2 {
				readers = append(readers, fmt.Sprintf("axes[%d]", j))
			}
		}
		if len(readers) != 1 {
			t.Errorf("Grid.%s is read by axes %v, want exactly one", f.Name, readers)
		}
	}
	if lists != len(axes) {
		t.Errorf("Grid has %d lists but the axes table has %d rows", lists, len(axes))
	}

	scType := reflect.TypeOf(Scenario{})
	writers := map[string][]string{}
	for j, a := range axes {
		name := fmt.Sprintf("axes[%d]", j)
		var sc Scenario
		a.set(&sc, &full, 1)
		for i := 0; i < scType.NumField(); i++ {
			if !reflect.ValueOf(sc).Field(i).IsZero() {
				writers[scType.Field(i).Name] = append(writers[scType.Field(i).Name], name)
			}
		}
		// probeValue(_, 1) is "probe1", 124.5 or 988 depending on the type.
		if label := a.label(&sc); !strings.Contains(label, "probe1") && !strings.Contains(label, "124.5") && !strings.Contains(label, "988") {
			t.Errorf("%s: label %q does not show the value it set", name, label)
		}
	}
	for i := 0; i < scType.NumField(); i++ {
		name := scType.Field(i).Name
		switch w := writers[name]; {
		case scalarOnly[name] && len(w) > 0:
			t.Errorf("Scenario.%s is listed scalar-only but axis %v writes it; drop the exemption", name, w)
		case !scalarOnly[name] && len(w) != 1:
			t.Errorf("Scenario.%s is written by axes %v, want exactly one (or list it in scalarOnly)", name, w)
		}
	}
}

// TestCSVCoversEveryField perturbs each Scenario field by reflection and
// requires the value to land in the CSV column named by the field's JSON
// tag — every field except the derived RunSeed, so the rows of a sweep
// over any axis are distinguishable, and header and row cannot drift
// apart.
func TestCSVCoversEveryField(t *testing.T) {
	scType := reflect.TypeOf(Scenario{})
	for i := 0; i < scType.NumField(); i++ {
		f := scType.Field(i)
		if f.Name == "RunSeed" {
			continue
		}
		column, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		var sc Scenario
		v := probeValue(t, f.Type, 1)
		reflect.ValueOf(&sc).Elem().Field(i).Set(v)
		want := fmt.Sprint(v.Interface())

		var buf bytes.Buffer
		if err := WriteCSV(&buf, []Result{{Scenario: sc}}); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil || len(rows) != 2 || len(rows[0]) != len(rows[1]) {
			t.Fatalf("field %s: CSV rows %v, err %v", f.Name, rows, err)
		}
		found := false
		for c, name := range rows[0] {
			if name == column {
				found = true
				if rows[1][c] != want {
					t.Errorf("Scenario.%s: column %s holds %q, want %q", f.Name, column, rows[1][c], want)
				}
			}
		}
		if !found {
			t.Errorf("Scenario.%s has no CSV column %q: rows of a sweep over it would differ only in name", f.Name, column)
		}
	}
}
