package runner

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// encoderJSON is the reference: the indenting json.Encoder WriteJSON was
// before it went through EncodeRow and WriteRows.
func encoderJSON(rs []Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rs)
	return buf.Bytes(), err
}

// TestWriteRowsIsTheEncoder holds WriteJSON (EncodeRow + WriteRows) to
// the indenting json.Encoder byte for byte: the committed sweep, an error
// row, HTML-escaped strings, a nil and an empty slice. The service joins
// rows it encoded once, so any drift here would split remote results
// from local ones.
func TestWriteRowsIsTheEncoder(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_runner.json")
	if err != nil {
		t.Fatal(err)
	}
	var sweep []Result
	if err := json.Unmarshal(committed, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 24 {
		t.Fatalf("BENCH_runner.json has %d rows, want 24", len(sweep))
	}
	sc := testGrid().Expand()[0]
	errRow := Result{Scenario: sc, WallSec: 0.5, Err: "unknown scheme \"x\""}
	escaped := Result{Scenario: sc, Metrics: map[string]float64{"mean_mbps": 1}, Err: "a <&> b"}
	escaped.Scenario.Name = "<script>&amp;</script>"
	cases := map[string][]Result{
		"BENCH_runner": sweep,
		"error row":    {sweep[0], errRow, sweep[1]},
		"html escape":  {escaped},
		"one row":      sweep[:1],
		"nil":          nil,
		"empty":        {},
	}
	for name, rs := range cases {
		want, err := encoderJSON(rs)
		if err != nil {
			t.Fatalf("%s: reference encoder: %v", name, err)
		}
		var got bytes.Buffer
		if err := WriteJSON(&got, rs); err != nil {
			t.Fatalf("%s: WriteJSON: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteJSON differs from the encoder:\n got %q\nwant %q", name, got.Bytes(), want)
		}
	}
	if got, _ := encoderJSON(sweep); !bytes.Equal(got, committed) {
		t.Error("BENCH_runner.json does not re-encode to its own bytes")
	}
	for name, want := range map[string]string{"nil": "null\n", "empty": "[]\n"} {
		var got bytes.Buffer
		WriteJSON(&got, cases[name])
		if got.String() != want {
			t.Errorf("%s: WriteJSON wrote %q, want %q", name, got.String(), want)
		}
	}

	// A row the encoder refuses fails the document before a byte is written.
	bad := []Result{sweep[0], {Scenario: sc, Metrics: map[string]float64{"x": math.NaN()}}}
	if _, err := encoderJSON(bad); err == nil {
		t.Fatal("reference encoder accepted NaN")
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, bad); err == nil || got.Len() != 0 {
		t.Fatalf("WriteJSON with a NaN metric: err=%v, wrote %d bytes; want an error and nothing written", err, got.Len())
	}
}
