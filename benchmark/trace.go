package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call the harness made across a layer boundary: its
// name, start and end (ns since the recorder was created), the span that
// caused it, and the cell or job it belongs to. Spans are recorded from
// the harness's own files, around calls into each layer's exported
// functions; spans inside the program are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"` // shared id of a cell or job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op behind one nil check, so the
// measured code path is the same with tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// noSpan is the parent of a root span and what a nil recorder returns.
const noSpan = -1

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int, unit string) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span measured elsewhere (a duration reported by a
// client goroutine after the fact).
func (r *recorder) add(name string, parent int, unit string, start time.Time, d time.Duration) int {
	if r == nil {
		return noSpan
	}
	s := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: s, End: s + d.Nanoseconds()})
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(r.snapshot(), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerTime is one row of the "where the time goes" table.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// Share is SelfMs over the sum of every span's self time. With
	// Workers=2 two cells run at once, so self times sum to more than the
	// wall clock; shares still sum to 1.
	Share float64 `json:"share"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of that interval its child spans cover (children that
// overlap each other, as parallel cells do, are not counted twice).
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	totalSelf := 0.0
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		self := dur - float64(covered(children[s.ID], s.Start, s.End))
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += dur / 1e6
		lt.SelfMs += self / 1e6
		totalSelf += self / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		if totalSelf > 0 {
			lt.Share = lt.SelfMs / totalSelf
		}
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(ss []span, lo, hi int64) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// spanDurationsMs returns the duration of every span with the given
// name, in ms, keyed by unit where the caller needs to join them.
func spanDurationsMs(spans []span, name string) (ms []float64, byUnit map[string]float64) {
	byUnit = map[string]float64{}
	for _, s := range spans {
		if s.Name == name {
			d := float64(s.End-s.Start) / 1e6
			ms = append(ms, d)
			byUnit[s.Unit] += d
		}
	}
	return ms, byUnit
}

// subtree returns root and every span below it.
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range spans { // parents are always recorded before children
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// splitRunScenario replaces the exp.run_scenario row — opaque from
// outside — with the three parts the replay pass measured: rig
// construction, the event loop, and the remainder, which is result
// collection (quantile sorts, metric assembly).
func splitRunScenario(rows []layerTime, replay replayCounts) []layerTime {
	var out []layerTime
	for _, lt := range rows {
		if lt.Name != "exp.run_scenario" || lt.SelfMs == 0 {
			out = append(out, lt)
			continue
		}
		build := replay.build.Seconds() * 1e3
		until := replay.run.Seconds() * 1e3
		collect := lt.SelfMs - build - until
		if collect < 0 {
			collect = 0
		}
		scale := lt.Share / lt.SelfMs
		for _, part := range []struct {
			name string
			ms   float64
		}{
			{"exp.run_scenario > sim.run_until", until},
			{"exp.run_scenario > exp.collect", collect},
			{"exp.run_scenario > exp.rig_build", build},
		} {
			out = append(out, layerTime{Name: part.name, Count: lt.Count, TotalMs: part.ms, SelfMs: part.ms, Share: part.ms * scale})
		}
	}
	return out
}

// scenarioSpans joins the traced pass with the replay pass by cell: the
// duration of every exp.run_scenario span in ms, and the total µs those
// cells spent outside rig construction and the event loop — result
// collection. The three spans come from different executions of the
// same cell, so the remainder carries their run-to-run noise.
func scenarioSpans(spans []span) (runMs []float64, collectUs float64) {
	runMs, runByCell := spanDurationsMs(spans, "exp.run_scenario")
	_, buildByCell := spanDurationsMs(spans, "exp.rig_build")
	_, untilByCell := spanDurationsMs(spans, "sim.run_until")
	for key, whole := range runByCell {
		collectUs += (whole - buildByCell[key] - untilByCell[key]) * 1e3
	}
	return runMs, collectUs
}
