package stats

// WindowedMax tracks the maximum of a value over a sliding window of
// "time" (any monotonically nondecreasing int64 key, typically sim.Time).
// It is the standard monotonic-deque construction: amortized O(1) per
// sample. Used for BBR-style max-bandwidth filters and µ estimation.
type WindowedMax struct {
	Window int64 // width of the window in key units
	q      Queue[keyed]
}

// keyed is one sample of a windowed extremum.
type keyed struct {
	key int64
	val float64
}

// NewWindowedMax returns a filter over the given window width.
func NewWindowedMax(window int64) *WindowedMax {
	return &WindowedMax{Window: window}
}

// Add inserts a sample at key t. Keys must be nondecreasing.
func (w *WindowedMax) Add(t int64, v float64) {
	// Drop samples dominated by the new one.
	for n := w.q.Len(); n > 0 && w.q.At(n-1).val <= v; n-- {
		w.q.PopBack()
	}
	w.q.Push(keyed{t, v})
	expire(&w.q, t-w.Window)
}

// expire drops the samples older than cut from the front, always keeping
// the newest.
func expire(q *Queue[keyed], cut int64) {
	for q.Len() > 1 && q.At(0).key < cut {
		q.PopFront()
	}
}

// Max returns the maximum over the window ending at the latest Add (0 if
// no samples).
func (w *WindowedMax) Max() float64 {
	if w.q.Len() == 0 {
		return 0
	}
	return w.q.At(0).val
}

// WindowedMin is the mirror image of WindowedMax.
type WindowedMin struct {
	Window int64
	q      Queue[keyed]
}

// NewWindowedMin returns a min filter over the given window width.
func NewWindowedMin(window int64) *WindowedMin {
	return &WindowedMin{Window: window}
}

// Add inserts a sample at key t. Keys must be nondecreasing.
func (w *WindowedMin) Add(t int64, v float64) {
	for n := w.q.Len(); n > 0 && w.q.At(n-1).val >= v; n-- {
		w.q.PopBack()
	}
	w.q.Push(keyed{t, v})
	expire(&w.q, t-w.Window)
}

// Min returns the minimum over the window (0 if no samples).
func (w *WindowedMin) Min() float64 {
	if w.q.Len() == 0 {
		return 0
	}
	return w.q.At(0).val
}

// Ring is a fixed-capacity ring buffer of float64 samples with O(1)
// append; it retains the most recent Cap samples and maintains a running
// windowed sum so the window mean is O(1). Used for the detector's
// z-history and Nimbus's rate history.
type Ring struct {
	buf  []float64
	next int
	full bool
	sum  float64
}

// NewRing returns a ring holding up to n samples.
func NewRing(n int) *Ring { return &Ring{buf: make([]float64, n)} }

// Push appends a sample, evicting the oldest when full.
func (r *Ring) Push(v float64) {
	if r.full {
		r.sum -= r.buf[r.next]
	}
	r.sum += v
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
		// The buffer now reads oldest-first from index 0: replace the
		// incremental sum by a fresh in-order summation. One O(Cap) pass
		// per Cap pushes is O(1) amortised, and it discards whatever
		// rounding the add/subtract updates accumulated.
		r.sum = 0
		for _, x := range r.buf {
			r.sum += x
		}
	}
}

// Sum returns the sum of the samples currently in the window. Between
// wraps it is maintained incrementally (add on push, subtract on evict);
// every Cap pushes it is recomputed exactly, so its rounding error never
// spans more than one window of updates: it is bounded by the magnitudes
// that passed through the ring since the last wrap, however long the run.
func (r *Ring) Sum() float64 { return r.sum }

// Len returns the number of samples currently held.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Full reports whether the ring holds Cap samples.
func (r *Ring) Full() bool { return r.full }

// Snapshot copies the samples oldest-first into dst (allocating if dst is
// too small) and returns the slice.
func (r *Ring) Snapshot(dst []float64) []float64 {
	n := r.Len()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if !r.full {
		copy(dst, r.buf[:r.next])
		return dst
	}
	k := copy(dst, r.buf[r.next:])
	copy(dst[k:], r.buf[:r.next])
	return dst
}

// At returns the i-th most recent sample (At(0) is the newest). It panics
// if i >= Len.
func (r *Ring) At(i int) float64 {
	if i >= r.Len() {
		panic("stats: Ring.At out of range")
	}
	idx := r.next - 1 - i
	if idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx]
}
