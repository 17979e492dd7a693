package stats

// Queue is a double-ended queue of T on a power-of-two ring that doubles
// when full: the sliding windows of the per-packet path (a sender's
// in-flight records, the rate samplers, the windowed extrema) push at the
// back and expire from the front, so a slot is written once per element,
// nothing is copied down, and the bytes allocated over a queue's life are
// twice its peak length. (A slice with a head index, re-grown by append
// and copied down now and then, allocates about five times its peak:
// past 256 elements append grows by a quarter at a time.) The zero value
// is an empty queue. Popped slots are not cleared, so T should hold no
// pointers.
type Queue[T any] struct {
	buf []T // len is 0 or a power of two
	// head and tail count every pop from the front and push at the back;
	// element i lives at buf[(head+i)&(len(buf)-1)].
	head, tail int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.tail - q.head }

// At returns the i-th element from the front, 0 <= i < Len. The pointer
// is valid until the next Push.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.tail-q.head == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&(len(q.buf)-1)] = v
	q.tail++
}

// grow doubles the ring, starting from one slot (most session flows are
// a handful of packets: a larger first ring costs a churn pass more bytes
// than the doublings it saves). Kept out of line so that Push inlines.
//
//go:noinline
func (q *Queue[T]) grow() {
	n := q.Len()
	buf := make([]T, max(1, 2*len(q.buf)))
	for i := range n {
		buf[i] = *q.At(i)
	}
	q.buf, q.head, q.tail = buf, 0, n
}

// PopFront drops the oldest element; the queue must not be empty.
func (q *Queue[T]) PopFront() { q.head++ }

// PopBack drops the newest element; the queue must not be empty.
func (q *Queue[T]) PopBack() { q.tail-- }
