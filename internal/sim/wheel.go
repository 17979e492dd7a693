package sim

import "math/bits"

// timerWheel is the scheduler's event queue: a ring of per-slot buckets
// hashed by expiry time, in front of an overflow heap for events beyond
// the wheel's horizon. Arming and cancelling are O(1) however many timers
// are pending, where a single heap pays O(log n) on each.
//
// The wheel is exact, not approximate: it pops events in strict (at, seq)
// order, the order a single eventHeap over all pending events would give
// (FuzzWheelOrder checks exactly that).
//
// Layout and invariants:
//
//   - The window [base, base+wheelSpan) is divided into wheelSlots slots of
//     width 1<<wheelShift ns. An event with at-base < wheelSpan lives in
//     bucket (at>>wheelShift)&wheelMask; anything later lives in the
//     overflow heap.
//   - base only advances (pop aligns it down to the popped event's
//     slot), and every push satisfies at >= now >= base, so a bucket
//     index is unambiguous: each slot maps to exactly one time window
//     of the current revolution.
//   - When base advances, overflow events that entered the window are
//     cascaded into their buckets, so the overflow heap never holds an
//     event earlier than any bucket event.
//   - Buckets are unsorted arrays (O(1) append on arm, O(1) swap-remove
//     on cancel, via Timer.idx) until first popped from; then the bucket
//     is heapified in place with eventHeap's 4-ary sift code and served
//     in (at, seq) order.
//   - occ is an occupancy bitmap over slots; finding the next non-empty
//     bucket is a word scan, not a slot walk.
type timerWheel struct {
	base Time // aligned start of the window; only advances
	size int  // events in buckets (excluding overflow)

	slots    [wheelSlots][]*Timer
	heaped   [wheelSlots]bool // slot has been heapified and must stay a heap
	occ      [wheelSlots / 64]uint64
	overflow eventHeap
}

// Wheel geometry: 1024 slots of 2^18 ns ≈ 262 µs give a ≈268 ms horizon,
// wide enough that pacing gaps and min-RTO rearms stay in the buckets
// while exponential-backoff RTOs overflow to the heap (where they are few
// and usually cancelled long before cascading). The slot count is the one
// of those measured that holds the benchmark's memory and set-up bounds:
// a scheduler is built per cell, so slot headers and bucket capacity are
// paid per cell in set-up time and resident memory (docs/architecture.md,
// "Decided: one event queue", has the table).
//
// Every bucket starts with room for wheelBucketCap events carved from one
// slab allocated with the wheel, so a slot's first events allocate
// nothing; a bucket that outgrows its share moves to its own array and
// keeps it.
const (
	wheelShift     = 18
	wheelSlots     = 1024
	wheelMask      = wheelSlots - 1
	wheelSpan      = Time(wheelSlots) << wheelShift
	wheelBucketCap = 8
)

func (w *timerWheel) init() {
	slab := make([]*Timer, wheelSlots*wheelBucketCap)
	for i := range w.slots {
		w.slots[i] = slab[i*wheelBucketCap : i*wheelBucketCap : (i+1)*wheelBucketCap]
	}
}

func (w *timerWheel) len() int { return w.size + len(w.overflow) }

func (w *timerWheel) push(t *Timer) {
	if t.at-w.base >= wheelSpan {
		w.overflow.push(t)
		return
	}
	w.pushBucket(t)
}

func (w *timerWheel) pushBucket(t *Timer) {
	s := int(t.at>>wheelShift) & wheelMask
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
	if t.at-w.base >= wheelSpan {
		w.overflow.remove(t)
		return
	}
	s := int(t.at>>wheelShift) & wheelMask
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
	start := int(w.base>>wheelShift) & wheelMask
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
	nb := now &^ (Time(1)<<wheelShift - 1)
	if nb <= w.base {
		return
	}
	w.base = nb
	for len(w.overflow) > 0 && w.overflow[0].at-nb < wheelSpan {
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

// UseTimerWheel does nothing: the timer wheel is the scheduler's only
// event queue. The name stays because benchmark/probes.go, which a change
// to the simulator may not edit, compiles against it; ROADMAP item 5
// lists its deletion with the probe's.
func (s *Scheduler) UseTimerWheel() {}
