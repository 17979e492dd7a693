package exp

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from what the code outputs now")

// pin spells a measured float64 in a golden file: the shortest text that
// parses back to the same bits, so a pin held in data is as exact as one
// held in code.
func pin(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

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

// TestPinIsInjective: moving a pin from a Go literal to a golden file
// loosens nothing. pin spells every float64 apart from its neighbours on
// both sides (and -0 apart from 0) and reads back to the same bits.
func TestPinIsInjective(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, 1, 1e21, math.MaxFloat64, -math.MaxFloat64} {
		for _, y := range []float64{math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)), -x} {
			if math.Float64bits(x) != math.Float64bits(y) && pin(x) == pin(y) {
				t.Errorf("pin(%v) and pin(%v) are both %s", x, y, pin(x))
			}
		}
		if back, err := strconv.ParseFloat(pin(x), 64); err != nil || math.Float64bits(back) != math.Float64bits(x) {
			t.Errorf("pin(%v) = %s reads back as %v, %v", x, pin(x), back, err)
		}
	}
}

// errorLog is a testing.TB that keeps what Errorf reports.
type errorLog struct {
	testing.TB
	msgs []string
}

func (l *errorLog) Errorf(format string, args ...any) {
	l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
}

// TestCheckGoldenNamesThePin: a golden file that differs in one value
// fails, and the message names that pin, its golden value and the value
// the code outputs now.
func TestCheckGoldenNamesThePin(t *testing.T) {
	if *update {
		t.Skip("-update writes instead of comparing")
	}
	path := filepath.Join(t.TempDir(), "x.golden")
	if err := os.WriteFile(path, []byte("a\t1\nfig08 Mbit/s\t"+pin(44.013902912621354)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	log := &errorLog{TB: t}
	checkGolden(log, path, "a\t1\nfig08 Mbit/s\t"+pin(math.Nextafter(44.013902912621354, math.Inf(1)))+"\n")
	if len(log.msgs) == 0 {
		t.Fatal("a moved pin passed")
	}
	for _, want := range []string{`"fig08 Mbit/s"`, "44.013902912621354", "44.01390291262136"} {
		if !strings.Contains(log.msgs[0], want) {
			t.Errorf("message %q does not name %s", log.msgs[0], want)
		}
	}
	if strings.Contains(log.msgs[0], `"a"`) {
		t.Errorf("message %q names a pin that did not move", log.msgs[0])
	}
}
