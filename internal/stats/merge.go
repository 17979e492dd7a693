package stats

import (
	"cmp"
	"math"
	"slices"
)

// MergeSorted reads several ascending runs as the one ascending sequence
// their concatenation would sort to, without building it: it returns the
// running moments of ms over that sequence, accumulated in order, and
// its p-quantiles (each p in [0,1]; NaN when the runs hold nothing) — bit
// for bit what a Welford pass and PercentilesSorted over the sorted
// concatenation of the ms values return, provided ms is monotone
// (non-decreasing). The walk keeps one cursor per run in a heap keyed by
// the cursor's next element, compared as T, so ms is called once per
// element, when the walk consumes it. It costs O(log len(runs)) per
// element and no memory beyond runs itself, which it consumes.
func MergeSorted[T cmp.Ordered](runs [][]T, ms func(T) float64, ps ...float64) (w Welford, qs []float64) {
	n := 0
	live := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			n += len(r)
		}
	}
	qs = make([]float64, len(ps))
	if n == 0 {
		for i := range qs {
			qs[i] = math.NaN()
		}
		return w, qs
	}
	// The order statistics each quantile interpolates between, and the
	// places in the merged sequence to pick them up at, ascending.
	type pick struct {
		at  int
		dst *float64
	}
	ends := make([]struct{ lo, hi, frac float64 }, len(ps))
	picks := make([]pick, 0, 2*len(ps))
	for i, p := range ps {
		lo, hi, frac := rank(n, p)
		picks = append(picks, pick{lo, &ends[i].lo}, pick{hi, &ends[i].hi})
		ends[i].frac = frac
	}
	slices.SortFunc(picks, func(a, b pick) int { return a.at - b.at })

	h := runHeap[T](live)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for i := 0; len(h) > 0; i++ {
		x := ms(h[0][0])
		w.Add(x)
		for len(picks) > 0 && picks[0].at == i {
			*picks[0].dst = x
			picks = picks[1:]
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	for i, e := range ends {
		qs[i] = interpolate(e.lo, e.hi, e.frac)
	}
	return w, qs
}

// runHeap is a min-heap of non-empty ascending runs ordered by their
// first element.
type runHeap[T cmp.Ordered] [][]T

func (h runHeap[T]) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1][0] < h[c][0] {
			c++
		}
		if h[i][0] <= h[c][0] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
