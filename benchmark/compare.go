package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of one workload x end-to-end metric pairing.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the B runs of a metric with the A runs under the
// benchmark's bound. A median that moved by no more than the bound is
// "same". Where either side's run-to-run spread (interquartile distance
// over median) exceeds the bound the pairing is "unresolved" — not
// "same" — unless every B run reads better (or worse) than every A run.
func judge(a, b []float64, better string, bound float64) (verdict string, worseBy, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = (mb - ma) / ma
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	spreadA, spreadB = spreadShare(a), spreadShare(b)
	if spreadA > bound || spreadB > bound {
		switch {
		case allBeyond(b, a, better):
			return verdictBetter, worseBy, spreadA, spreadB
		case allBeyond(a, b, better) && worseBy > bound:
			return verdictWorse, worseBy, spreadA, spreadB
		}
		return verdictUnresolved, worseBy, spreadA, spreadB
	}
	switch {
	case worseBy > bound:
		verdict = verdictWorse
	case -worseBy > bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return verdict, worseBy, spreadA, spreadB
}

// allBeyond reports whether every x reads strictly better than every y.
func allBeyond(xs, ys []float64, better string) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	sx, sy := sortedCopy(xs), sortedCopy(ys)
	if better == "higher" {
		return sx[0] > sy[len(sy)-1]
	}
	return sx[len(sx)-1] < sy[0]
}

// runGroup is the runs of one workload in one file, untraced or traced.
type runGroup struct {
	runs []runResult
}

func (g runGroup) values(metric string) []float64 {
	var xs []float64
	for _, r := range g.runs {
		if mv, ok := r.Metrics[metric]; ok {
			xs = append(xs, mv.Value)
		}
	}
	return xs
}

// bySeed maps seed → value of a metric (last run wins).
func (g runGroup) bySeed(metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range g.runs {
		if mv, ok := r.Metrics[metric]; ok {
			out[r.Seed] = mv.Value
		}
	}
	return out
}

func groupRuns(rs []runResult, traced bool) map[string]runGroup {
	out := map[string]runGroup{}
	for _, r := range rs {
		if r.Traced == traced {
			g := out[r.Workload]
			g.runs = append(g.runs, r)
			out[r.Workload] = g
		}
	}
	return out
}

// exactDiffs counts the seeds both sides ran on which an exact metric
// differs.
func exactDiffs(a, b runGroup, metric string) (shared, differ int) {
	av, bv := a.bySeed(metric), b.bySeed(metric)
	for seed, x := range av {
		if y, ok := bv[seed]; ok {
			shared++
			if x != y {
				differ++
			}
		}
	}
	return shared, differ
}

// paired is the two sides compared seed by seed: for every seed both ran,
// how much worse B read than A on that seed. When the two runs on a seed
// were made back to back (as benchmark/aa.sh makes them) the host's slow
// drift is in both and leaves the ratio, so the paired change resolves
// what the pooled medians cannot; and the count of pairs B won is what
// the choosing-metrics guide's claim rule asks for.
type paired struct {
	pairs          int
	change, spread float64 // median and interquartile distance of the per-seed changes (+ = B worse)
	better, worse  int     // pairs on which B read better, worse; ties count for neither
}

func pairedChange(a, b runGroup, metric, better string) paired {
	av, bv := a.bySeed(metric), b.bySeed(metric)
	var p paired
	var changes []float64
	for seed, x := range av {
		y, ok := bv[seed]
		if !ok || x == 0 {
			continue
		}
		d := (y - x) / x
		if better == "higher" {
			d = -d
		}
		changes = append(changes, d)
		switch {
		case d < 0:
			p.better++
		case d > 0:
			p.worse++
		}
	}
	p.pairs = len(changes)
	if p.pairs >= 2 {
		q1, q3 := quartiles(changes)
		p.change, p.spread = median(changes), q3-q1
	}
	return p
}

// table renders rows as a markdown table, which also reads well enough
// in a terminal.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.header, " | "))
	fmt.Fprintf(w, "|%s\n", strings.Repeat(" --- |", len(t.header)))
	for _, r := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

func pct(x float64) string { return fmt.Sprintf("%+.2f%%", x*100) }

// runCompare is -compare, written as markdown: per workload x end-to-end
// metric the medians, the change, both sides' spread, the bound and a
// verdict, then the change seed by seed (pairedChange); exact-match
// verdicts for counts and simulated metrics; digest changes and any rise
// in failed operations. It returns 1 when something got worse or more
// operations failed, 0 otherwise ("unresolved" and a declared output
// change are information, not failure).
func runCompare(w io.Writer, sp Spec, pathA, pathB string) int {
	ra, err := readJSONL(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	rb, err := readJSONL(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	exit := 0
	heading := func(s string) { fmt.Fprintf(w, "## %s\n\n", s) }
	if len(ra) > 0 && len(rb) > 0 {
		ha, hb := ra[0].Host, rb[0].Host
		fmt.Fprintf(w, "A: %s (%d runs, commit %s, %s, GOMAXPROCS %d, nproc %d)\n", pathA, len(ra), ha.Commit, ha.GoVersion, ha.GOMAXPROCS, ha.NProc)
		fmt.Fprintf(w, "B: %s (%d runs, commit %s, %s, GOMAXPROCS %d, nproc %d)\n", pathB, len(rb), hb.Commit, hb.GoVersion, hb.GOMAXPROCS, hb.NProc)
		fmt.Fprintf(w, "host: %s\n\n", ha.Fingerprint)
		if ha.Fingerprint != hb.Fingerprint {
			fmt.Fprintf(w, "WARNING: host fingerprints differ (B: %s); host-time numbers are not comparable across hosts\n\n", hb.Fingerprint)
		}
	}

	// End to end.
	ea, eb := groupRuns(ra, false), groupRuns(rb, false)
	heading("End-to-end metrics (untraced runs)")
	t := table{header: []string{"workload", "metric", "runs A/B", "median A", "median B", "change (+ = worse)", "spread A", "spread B", "bound", "verdict", "paired change", "paired spread", "pairs B better/worse"}}
	for _, wl := range workloadWhys(sp) {
		a, okA := ea[wl.Name]
		b, okB := eb[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.values(m.Name), b.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worseBy, sa, sb := judge(va, vb, m.Better, m.Bound)
			if metricDocs[m.Name].Exact {
				if shared, differ := exactDiffs(a, b, m.Name); differ > 0 {
					verdict += fmt.Sprintf("; simulated output changed on %d of %d shared seeds", differ, shared)
				} else if shared > 0 {
					verdict += fmt.Sprintf("; exact on %d shared seeds", shared)
				}
			}
			if strings.HasPrefix(verdict, verdictWorse) {
				exit = 1
			}
			pairedCells := []string{"n/a", "n/a", "n/a"}
			if p := pairedChange(a, b, m.Name, m.Better); p.pairs >= 2 {
				pairedCells = []string{pct(p.change), pct(p.spread), fmt.Sprintf("%d/%d of %d", p.better, p.worse, p.pairs)}
			}
			t.add(wl.Name, m.Name, fmt.Sprintf("%d/%d", len(va), len(vb)),
				fmt.Sprintf("%.6g", median(va)), fmt.Sprintf("%.6g", median(vb)),
				pct(worseBy), pct(sa), pct(sb), fmt.Sprintf("%.0f%%", m.Bound*100), verdict,
				pairedCells[0], pairedCells[1], pairedCells[2])
		}
	}
	t.write(w)

	// Correctness: failures and digests, over untraced and traced runs.
	heading("Correctness")
	ct := table{header: []string{"workload", "failed/attempted A", "failed/attempted B", "results_digest"}}
	for _, wl := range workloadWhys(sp) {
		var fa, aa, fb, ab int
		da, db := map[int64]string{}, map[int64]string{}
		for _, r := range ra {
			if r.Workload == wl.Name {
				fa, aa = fa+r.Failed, aa+r.Attempted
				da[r.Seed] = r.ResultsDigest
			}
		}
		for _, r := range rb {
			if r.Workload == wl.Name {
				fb, ab = fb+r.Failed, ab+r.Attempted
				db[r.Seed] = r.ResultsDigest
			}
		}
		if aa == 0 || ab == 0 {
			continue
		}
		shared, differ := 0, 0
		for seed, d := range da {
			if e, ok := db[seed]; ok {
				shared++
				if d != e {
					differ++
				}
			}
		}
		digest := fmt.Sprintf("identical on %d shared seeds", shared)
		if differ > 0 {
			digest = fmt.Sprintf("simulated output changed on %d of %d shared seeds (a PR must declare this)", differ, shared)
		}
		if float64(fb)/float64(ab) > float64(fa)/float64(aa) {
			digest += "; failed_share ROSE"
			exit = 1
		}
		ct.add(wl.Name, fmt.Sprintf("%d/%d", fa, aa), fmt.Sprintf("%d/%d", fb, ab), digest)
	}
	ct.write(w)

	// Per layer: informational, no bounds.
	la, lb := groupRuns(ra, true), groupRuns(rb, true)
	if len(la) > 0 && len(lb) > 0 {
		heading("Per-layer metrics (traced runs; informational)")
		for _, wl := range workloadWhys(sp) {
			a, okA := la[wl.Name]
			b, okB := lb[wl.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "### %s\n\n", wl.Name)
			lt := table{header: []string{"metric", "unit", "runs A/B", "median A", "median B", "change", "note"}}
			for _, m := range sp.PerLayer {
				va, vb := a.values(m.Name), b.values(m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				if ma == 0 && mb == 0 {
					continue
				}
				change := "n/a"
				if ma != 0 {
					change = pct((mb - ma) / ma)
				}
				note := ""
				if metricDocs[m.Name].Exact {
					if shared, differ := exactDiffs(a, b, m.Name); differ > 0 {
						note = fmt.Sprintf("EXACT METRIC CHANGED on %d of %d shared seeds", differ, shared)
					} else if shared > 0 {
						note = "exact"
					}
				}
				lt.add(m.Name, m.Unit, fmt.Sprintf("%d/%d", len(va), len(vb)),
					fmt.Sprintf("%.6g", ma), fmt.Sprintf("%.6g", mb), change, note)
			}
			lt.write(w)
		}
	}
	return exit
}
