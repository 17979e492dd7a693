package runner

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from what the code outputs now")

// checkGolden compares got, one "name<TAB>value" line per pin, with the
// golden file at path byte for byte, or writes it there under -update
// (only where it differs). Each pin that moved is reported by name with
// its golden value and the one the code outputs now.
func checkGolden(t testing.TB, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if *update && got != string(want) {
		err = os.WriteFile(path, []byte(got), 0o644)
	} else if err == nil && got != string(want) {
		old := map[string]string{}
		for _, l := range strings.Split(string(want), "\n") {
			name, v, _ := strings.Cut(l, "\t")
			old[name] = v
		}
		for _, l := range strings.Split(got, "\n") {
			if name, now, _ := strings.Cut(l, "\t"); now != old[name] {
				t.Errorf("%s: pin %q moved: golden %q, now %q", path, name, old[name], now)
			}
		}
		t.Errorf("%s differs from the output (go test -update rewrites it):\n%s", path, got)
	}
	if err != nil {
		t.Fatal(err)
	}
}
