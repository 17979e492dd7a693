package sim

import "math/bits"

// timerWheel is the hashed-timer-wheel event queue: a ring of per-slot
// buckets hashed by expiry time, in front of an overflow heap for events
// beyond the wheel's horizon. It exists for dense short-horizon timer
// churn — at 10k+ concurrent flows the pace/RTO timers make the 4-ary
// heap's O(log n) push/pop/remove the simulator's hot path, while the
// wheel arms and cancels in O(1).
//
// The wheel is exact, not approximate: it pops events in the same strict
// (at, seq) total order as the heap, so enabling it never changes a
// simulation result (Scheduler.UseTimerWheel documents the contract;
// the sim tests and the exp-level identity tests enforce it).
//
// Layout and invariants:
//
//   - The window [base, base+span) is divided into slotCount slots of
//     width 1<<shift ns. An event with at-base < span lives in bucket
//     (at>>shift)&mask; anything later lives in the overflow heap.
//   - base only advances (pop aligns it down to the popped event's
//     slot), and every push satisfies at >= now >= base, so a bucket
//     index is unambiguous: each slot maps to exactly one time window
//     of the current revolution.
//   - When base advances, overflow events that entered the window are
//     cascaded into their buckets, so the overflow heap never holds an
//     event earlier than any bucket event.
//   - Buckets are unsorted arrays (O(1) append on arm, O(1) swap-remove
//     on cancel, via Timer.idx) until first popped from; then the bucket
//     is heapified in place with the same 4-ary sift code the main heap
//     uses and served in (at, seq) order. Sorting k events costs O(k log
//     k) against k·O(log n) under the heap — and k is bucket-sized, so
//     the constant is cache-local.
//   - occ is an occupancy bitmap over slots; finding the next non-empty
//     bucket is a word scan, not a slot walk.
type timerWheel struct {
	shift uint
	mask  int
	span  Time
	base  Time // aligned start of the window; only advances
	size  int  // events in buckets (excluding overflow)

	slots    [][]*Timer
	heaped   []bool // slot has been heapified and must stay a heap
	occ      []uint64
	overflow eventHeap
}

// Wheel geometry: 2^13 ns ≈ 8.2 µs slots and 32768 slots give a ≈268 ms
// horizon — wide enough that pacing gaps and min-RTO rearms stay O(1) in
// the buckets, while exponential-backoff RTOs overflow to the heap
// (where they are few and usually cancelled long before cascading).
// Narrow slots keep buckets shallow even at 10k dense pace timers
// (~75/bucket instead of ~600 at 64 µs slots), which is what makes the
// serve path beat the global heap's log n. The fixed cost is ~1 MB of
// slot headers per wheel-enabled scheduler plus the buckets' retained
// capacity — noise next to a 10k-flow simulation's packet state, but
// measured at +11 MB (+35 %) peak RSS for a two-worker process running
// the canonical 24-cell sweep, which is why non-churn cells stay on the
// heap (docs/architecture.md).
const (
	wheelShift = 13
	wheelSlots = 32768
)

func newTimerWheel(now Time) *timerWheel {
	w := &timerWheel{
		shift:  wheelShift,
		mask:   wheelSlots - 1,
		span:   Time(wheelSlots) << wheelShift,
		slots:  make([][]*Timer, wheelSlots),
		heaped: make([]bool, wheelSlots),
		occ:    make([]uint64, wheelSlots/64),
	}
	w.base = now &^ (Time(1)<<w.shift - 1)
	return w
}

func (w *timerWheel) len() int { return w.size + len(w.overflow) }

func (w *timerWheel) push(t *Timer) {
	if t.at-w.base >= w.span {
		w.overflow.push(t)
		return
	}
	w.pushBucket(t)
}

func (w *timerWheel) pushBucket(t *Timer) {
	s := int(t.at>>w.shift) & w.mask
	if w.heaped[s] {
		(*eventHeap)(&w.slots[s]).push(t)
	} else {
		b := append(w.slots[s], t)
		t.idx = len(b) - 1
		w.slots[s] = b
	}
	w.occ[s>>6] |= 1 << uint(s&63)
	w.size++
}

func (w *timerWheel) remove(t *Timer) {
	if t.at-w.base >= w.span {
		w.overflow.remove(t)
		return
	}
	s := int(t.at>>w.shift) & w.mask
	if w.heaped[s] {
		(*eventHeap)(&w.slots[s]).remove(t)
	} else {
		b := w.slots[s]
		i, n := t.idx, len(b)
		last := b[n-1]
		b[n-1] = nil
		b = b[:n-1]
		if i < n-1 {
			b[i] = last
			last.idx = i
		}
		w.slots[s] = b
		t.idx = -1
	}
	if len(w.slots[s]) == 0 {
		w.occ[s>>6] &^= 1 << uint(s&63)
		w.heaped[s] = false
	}
	w.size--
}

// firstSlot returns the earliest non-empty bucket: the first set
// occupancy bit in circular slot order starting at base's slot. Events
// all lie within one revolution of base, so circular order is time
// order. Must not be called with empty buckets.
func (w *timerWheel) firstSlot() int {
	start := int(w.base>>w.shift) & w.mask
	wi := start >> 6
	word := w.occ[wi] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi == len(w.occ) {
			wi = 0
		}
		word = w.occ[wi]
	}
}

// peek returns the earliest event without removing it. It may heapify
// the head bucket, but never moves base.
func (w *timerWheel) peek() *Timer {
	if w.size == 0 {
		if len(w.overflow) == 0 {
			return nil
		}
		return w.overflow[0]
	}
	s := w.firstSlot()
	if !w.heaped[s] {
		w.heapify(s)
	}
	return w.slots[s][0]
}

func (w *timerWheel) pop() *Timer {
	var t *Timer
	if w.size == 0 {
		if len(w.overflow) == 0 {
			return nil
		}
		t = w.overflow.pop()
	} else {
		s := w.firstSlot()
		if !w.heaped[s] {
			w.heapify(s)
		}
		t = (*eventHeap)(&w.slots[s]).pop()
		if len(w.slots[s]) == 0 {
			w.occ[s>>6] &^= 1 << uint(s&63)
			w.heaped[s] = false
		}
		w.size--
	}
	w.advance(t.at)
	return t
}

// advance slides the window forward so it starts at now's slot, and
// cascades overflow events that entered the window into their buckets.
// The slots being vacated (times < now's slot start) are necessarily
// empty — everything there has already popped — so the buckets the
// cascaded events land in are fresh.
func (w *timerWheel) advance(now Time) {
	nb := now &^ (Time(1)<<w.shift - 1)
	if nb <= w.base {
		return
	}
	w.base = nb
	for len(w.overflow) > 0 && w.overflow[0].at-nb < w.span {
		w.pushBucket(w.overflow.pop())
	}
}

// heapify turns an unsorted bucket into a 4-ary min-heap in place. Once
// heaped, a bucket stays a heap (push/remove maintain the property)
// until it empties.
func (w *timerWheel) heapify(s int) {
	b := eventHeap(w.slots[s])
	for i := (len(b) - 2) >> 2; i >= 0; i-- {
		b.siftDown(i)
	}
	w.heaped[s] = true
}

// UseTimerWheel replaces the scheduler's 4-ary heap with the hashed
// timer wheel. Both structures pop events in the identical (at, seq)
// total order, so results are byte-for-byte the same either way; the
// wheel trades the heap's O(log n) arm/cancel for O(1) and resident
// memory for speed: measured end to end it is ≥2x per event under 10k
// churning timers, −24 % wall but +35 % peak RSS on the canonical
// long-flow sweep, and no faster (+12 % RSS) on detector-bound cells —
// so callers select it by scenario (exp.NetConfigFor), not by flag. It
// must be called before any event is scheduled; flipping the structure
// mid-run would require migrating the queue, which no caller needs.
func (s *Scheduler) UseTimerWheel() {
	if s.wheel != nil {
		return
	}
	if len(s.events) > 0 {
		panic("sim: UseTimerWheel called with events already queued")
	}
	s.wheel = newTimerWheel(s.now)
}

// UsingTimerWheel reports whether the wheel is the active event queue.
func (s *Scheduler) UsingTimerWheel() bool { return s.wheel != nil }

// The scheduler routes every queue operation through these helpers; the
// wheel-nil branch is the historical heap path, untouched.

func (s *Scheduler) qpush(t *Timer) {
	if s.wheel != nil {
		s.wheel.push(t)
		return
	}
	s.events.push(t)
}

func (s *Scheduler) qpop() *Timer {
	if s.wheel != nil {
		return s.wheel.pop()
	}
	return s.events.pop()
}

func (s *Scheduler) qpeek() *Timer {
	if s.wheel != nil {
		return s.wheel.peek()
	}
	if len(s.events) == 0 {
		return nil
	}
	return s.events[0]
}

func (s *Scheduler) qremove(t *Timer) {
	if s.wheel != nil {
		s.wheel.remove(t)
		return
	}
	s.events.remove(t)
}

func (s *Scheduler) qlen() int {
	if s.wheel != nil {
		return s.wheel.len()
	}
	return len(s.events)
}
