package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteJSON writes results as indented JSON: each result encoded by
// EncodeRow, joined by WriteRows. A nil slice writes "null\n". A result
// that cannot be encoded (a NaN or Inf metric) fails the whole document
// before anything is written.
func WriteJSON(w io.Writer, rs []Result) error {
	if rs == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	rows := make([][]byte, len(rs))
	for i, r := range rs {
		row, err := EncodeRow(r)
		if err != nil {
			return err
		}
		rows[i] = row
	}
	return WriteRows(w, rows)
}

// EncodeRow encodes one result as an element of the WriteJSON document:
// indented one level, without a leading indent or a trailing newline.
// The bytes depend on r alone, so a cached result's row can be encoded
// once and served verbatim (the experiment service shares one row among
// every job that names the cell).
func EncodeRow(r Result) ([]byte, error) {
	return json.MarshalIndent(r, "  ", "  ")
}

// WriteRows writes rows from EncodeRow as one JSON array, byte for byte
// what an indenting json.Encoder writes for the results they encode:
// "[\n  ", the rows separated by ",\n  ", then "\n]\n"; no rows is
// "[]\n". The document goes out in one Write.
func WriteRows(w io.Writer, rows [][]byte) error {
	if len(rows) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	n := len("[\n  ") + len("\n]\n") + (len(rows)-1)*len(",\n  ")
	for _, row := range rows {
		n += len(row)
	}
	doc := make([]byte, 0, n)
	doc = append(doc, "[\n  "...)
	for i, row := range rows {
		if i > 0 {
			doc = append(doc, ",\n  "...)
		}
		doc = append(doc, row...)
	}
	doc = append(doc, "\n]\n"...)
	_, err := w.Write(doc)
	return err
}

// WriteCSV writes results as CSV: one row per run, scenario fields first,
// then the union of metric names in sorted order, then events and wall
// time. Missing metrics render as empty cells. The scenario columns are
// named by the fields' JSON tags and cover every Scenario field except
// the derived RunSeed (TestCSVCoversEveryField), so no two cells of a
// sweep write rows that differ only in name; new fields append, so
// column positions hold.
func WriteCSV(w io.Writer, rs []Result) error {
	names := MetricNames(rs)
	cw := csv.NewWriter(w)
	header := []string{"name", "scheme", "flow_mix", "rate_mbps", "link_trace", "rate_pattern",
		"rtt_ms", "buffer_ms", "aqm", "cross", "cross_rate_mbps", "duration_sec", "seed",
		"topology", "churn", "fluid_cross", "cross_rtt_ms", "pie_target_ms"}
	header = append(header, names...)
	header = append(header, "events", "wall_sec", "err")
	if err := cw.Write(header); err != nil {
		return err
	}
	g := formatFloat
	row := make([]string, 0, len(header)) // reused across rows
	for _, r := range rs {
		sc := r.Scenario
		row = append(row[:0], sc.Name, sc.Scheme.String(), sc.FlowMix, g(sc.RateMbps), sc.LinkTrace, sc.RatePattern,
			g(sc.RTTms), g(sc.BufferMs), sc.AQM,
			sc.Cross, g(sc.CrossRateMbps), g(sc.DurationSec), strconv.FormatInt(sc.Seed, 10),
			sc.Topology, sc.Churn, sc.FluidCross, g(sc.CrossRTTms), g(sc.PIETargetMs))
		for _, n := range names {
			if v, ok := r.Metrics[n]; ok {
				row = append(row, g(v))
			} else {
				row = append(row, "")
			}
		}
		row = append(row, strconv.FormatUint(r.Events, 10), g(r.WallSec), r.Err)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile writes results to path, choosing the format from the
// extension (".csv" → CSV, anything else → JSON).
func WriteFile(path string, rs []Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = WriteCSV(f, rs)
	} else {
		err = WriteJSON(f, rs)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("runner: writing %s: %w", path, err)
	}
	return nil
}
