package exp

import (
	"fmt"
	"math"
	"strings"
)

// Col is one column of a Table: its name, the verb the header prints the
// name with, and the verb a cell prints with, e.g.
// {"median RTT", "%12s", "%9.0f ms"}. A precision in the header verb
// prints a prefix of the name ("%9.6s" shows "Mbit/s, elastic" as
// "Mbit/s"), for columns that share a unit under a Table.Over line.
type Col struct{ Name, Head, Cell string }

// Table is one panel of a Report: a title line, a header line and one
// line per row, cells one space apart. A nil cell prints "-" aligned the
// way the header is. An error cell prints "ERROR: ..." and ends its row,
// so a failed row keeps the label columns before it.
//
// Columns without a header verb make the table a list of named values:
// no header line, one row, and each cell verb is a whole phrase with its
// own line end ("Jain fairness index: %.3f\n").
type Table struct {
	Title string
	Over  string // a line above the header that groups columns (Fig. 1)
	Cols  []Col
	Rows  [][]any
}

// Report is what an experiment returns: every number it prints, by panel
// and column name, and the shape the paper expects of them. It holds no
// time series; those belong to the trace sink (ROADMAP item 3).
type Report struct {
	Panels []Table
	Expect string // "" prints no expected-shape line
}

// String renders the report; it is the only renderer.
func (r Report) String() string {
	var b strings.Builder
	for _, t := range r.Panels {
		t.write(&b)
	}
	if r.Expect != "" {
		b.WriteString("expected shape: " + r.Expect + "\n")
	}
	return b.String()
}

func (t Table) write(b *strings.Builder) {
	for _, line := range []string{t.Title, t.Over} {
		if line != "" {
			b.WriteString(line + "\n")
		}
	}
	sep, end := " ", "\n"
	if t.Cols[0].Head == "" {
		sep, end = "", ""
	} else {
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteString(sep)
			}
			fmt.Fprintf(b, c.Head, c.Name)
		}
		b.WriteString(end)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString(sep)
			}
			switch v := v.(type) {
			case nil:
				fmt.Fprintf(b, t.Cols[i].Head, "-")
			case error:
				fmt.Fprintf(b, "ERROR: %v", v)
			default:
				fmt.Fprintf(b, t.Cols[i].Cell, v)
			}
		}
		b.WriteString(end)
	}
}

// Failed reports whether any row holds an error cell.
func (r Report) Failed() bool {
	for _, t := range r.Panels {
		for _, row := range t.Rows {
			for _, v := range row {
				if _, ok := v.(error); ok {
					return true
				}
			}
		}
	}
	return false
}

// Num returns the number a row holds under the named column, NaN when
// the cell is not a number (a "-", or a row cut short by an error). A
// column the table does not have panics.
func (t Table) Num(row int, col string) float64 {
	for i, c := range t.Cols {
		if c.Name != col {
			continue
		}
		if r := t.Rows[row]; i < len(r) {
			if v, ok := r[i].(float64); ok {
				return v
			}
		}
		return math.NaN()
	}
	panic(fmt.Sprintf("exp: table %q has no column %q", t.Title, col))
}

// mbpsList is a cell holding one rate per flow; it prints them to one
// decimal, comma-separated.
type mbpsList []float64

func (l mbpsList) String() string {
	parts := make([]string, len(l))
	for i, x := range l {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, ", ")
}
