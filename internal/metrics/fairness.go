package metrics

import "math"

// JainIndex is Jain's fairness index of an allocation: (Σx)²/(n·Σx²),
// 1.0 for perfectly equal shares, 1/n when one flow takes everything.
// It returns 0 for an empty or all-zero allocation.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq <= 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// OnlineJain accumulates Jain's fairness index one observation at a
// time, so a churn workload can score fairness over tens of thousands of
// completed flows without retaining a per-flow slice. Feed it one
// representative rate per flow (e.g. size/FCT) as each flow completes;
// Index() is then exactly JainIndex of the values seen so far.
type OnlineJain struct {
	n          int
	sum, sumSq float64
}

// Add records one flow's value.
func (j *OnlineJain) Add(x float64) {
	j.n++
	j.sum += x
	j.sumSq += x * x
}

// Index returns Jain's index over the values observed so far (0 when
// empty or all-zero, matching JainIndex).
func (j *OnlineJain) Index() float64 {
	if j.sumSq <= 0 {
		return 0
	}
	return j.sum * j.sum / (float64(j.n) * j.sumSq)
}

// JSDUniform is the Jensen-Shannon divergence, in bits, between the
// normalized share vector and the equal-share (uniform) allocation: 0
// for perfect fairness, approaching 1 as the allocation concentrates.
// Unlike Jain's index it weighs starvation heavily — a flow at zero
// share moves JSD much further than it moves Jain. It returns 0 for an
// empty or all-zero allocation.
func JSDUniform(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 || len(xs) == 0 {
		return 0
	}
	u := 1 / float64(len(xs))
	var jsd float64
	for _, x := range xs {
		p := 0.0
		if x > 0 {
			p = x / total
		}
		m := (p + u) / 2
		if p > 0 {
			jsd += p * math.Log2(p/m) / 2
		}
		jsd += u * math.Log2(u/m) / 2
	}
	// Clamp tiny negative float error.
	if jsd < 0 {
		jsd = 0
	}
	return jsd
}
