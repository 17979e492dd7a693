package exp

import (
	"errors"
	"math"
	"testing"
)

// goldenReport uses every layout feature the 32 reports do: left and
// right alignment, a unit suffix under a wider header, a nil cell, an
// error row that keeps its labels, a second panel with its own title
// (fig14), a header in two lines (fig01), a list cell after a two-space
// gap (coexist), and named-value lines sharing a text line (fig16).
func goldenReport(expect string) Report {
	return Report{
		Panels: []Table{{
			Title: "Golden: first panel",
			Over:  "scheme       phase one",
			Cols: []Col{
				{"scheme", "%-8.0s", "%-8s"},
				{"Mbit/s, one", "%8.6s", "%8.1f"},
				{"median RTT", "%12s", "%9.0f ms"},
				{"acc", "%6s", "%6.2f"},
				{"per-flow Mbit/s", " %s", " [%s]"},
			},
			Rows: [][]any{
				{"nimbus", 43.21, 50.4, 0.987, mbpsList{19.84, 75.5}},
				{"cubic", 59.1, 69.0, nil, mbpsList{1}},
				{"bbr", errors.New("exp: boom")},
			},
		}, {
			Title: "Golden: second panel",
			Cols:  []Col{{"share", "%6s", "%5.0f%%"}, {"drops", "%6s", "%6d"}},
			Rows:  [][]any{{30.0, uint64(7)}},
		}, {
			Cols: []Col{
				{"one pulser", "", "pulser census: one=%.2f"},
				{"no pulser", "", " none=%.2f\n"},
				{"jain", "", "Jain fairness index: %.3f\n"},
			},
			Rows: [][]any{{0.88, 0.12, 0.9234}},
		}},
		Expect: expect,
	}
}

const goldenText = `Golden: first panel
scheme       phase one
           Mbit/s   median RTT    acc  per-flow Mbit/s
nimbus       43.2        50 ms   0.99  [19.8, 75.5]
cubic        59.1        69 ms      -  [1.0]
bbr      ERROR: exp: boom
Golden: second panel
 share  drops
   30%      7
pulser census: one=0.88 none=0.12
Jain fairness index: 0.923
`

func TestReportGolden(t *testing.T) {
	if got, want := goldenReport("a > b").String(), goldenText+"expected shape: a > b\n"; got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
	// fig07, fig12 and table1 state no expectation and print no such line.
	if got := goldenReport("").String(); got != goldenText {
		t.Errorf("without Expect, rendered:\n%s\nwant:\n%s", got, goldenText)
	}
}

// TestReportFailed: an error cell anywhere fails the report, which is
// what nimbus-bench -run turns into exit status 1.
func TestReportFailed(t *testing.T) {
	rep := goldenReport("")
	if !rep.Failed() {
		t.Error("a report with an ERROR row did not report failure")
	}
	rep.Panels[0].Rows = rep.Panels[0].Rows[:2]
	if rep.Failed() {
		t.Error("a report without error cells reported failure")
	}
}

func TestTableNum(t *testing.T) {
	tab := goldenReport("").Panels[0]
	if got := tab.Num(0, "median RTT"); got != 50.4 {
		t.Errorf("Num(0, median RTT) = %v, want 50.4", got)
	}
	// A "-" cell and a row cut short by its error hold no number.
	if got := tab.Num(1, "acc"); !math.IsNaN(got) {
		t.Errorf("Num of a nil cell = %v, want NaN", got)
	}
	if got := tab.Num(2, "acc"); !math.IsNaN(got) {
		t.Errorf("Num past an error cell = %v, want NaN", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown column: want a panic")
		}
	}()
	tab.Num(0, "no such column")
}
