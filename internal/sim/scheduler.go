package sim

// Timer is a handle to a scheduled event. Cancelling a Timer prevents its
// callback from running; cancelling an already-fired or already-cancelled
// timer is a no-op.
//
// An event is one of two kinds. Fire-and-forget events (arrivals, ticks,
// stops) go through AtFunc/AfterFunc/AfterArg and return no handle; their
// Timer structs are pooled and reused by the scheduler, which makes them
// allocation-free in steady state. Events that all wait the same delay — a
// packet or ACK crossing a wire — go on a Line instead, which waits beside
// the event queue rather than in it. A caller that must cancel or move its
// event gets a handle from Rearm: the Timer is owned by the caller, never
// recycled by the scheduler, and Rearm(nil, ...) allocates the first one.
//
// A handle moved later while it is still queued stays where it is in the
// queue, keyed (at, seq), and carries the time and seq it is due at in
// (due, dueSeq); dueSeq is non-zero exactly while that deferral is
// pending. When the handle reaches the head of the queue, the scheduler
// re-queues it at (due, dueSeq) instead of running it.
type Timer struct {
	at        Time
	seq       uint64
	due       Time
	dueSeq    uint64
	fn        func()
	afn       func(arg any)
	arg       any
	sch       *Scheduler
	idx       int // position in its bucket or the overflow heap; -1 when not queued
	cancelled bool
	fired     bool
	pooled    bool
}

// Cancel prevents the timer's callback from running. The event is removed
// from the queue immediately (and a pooled timer is released back to the
// free list on the spot), so cancelled events never linger in the queue and
// a cancelled caller-owned handle is immediately recyclable via Rearm.
func (t *Timer) Cancel() {
	if t == nil || t.cancelled || t.fired {
		return
	}
	t.cancelled = true
	if t.idx >= 0 && t.sch != nil {
		t.sch.wheel.remove(t)
		t.settle()
		t.sch.release(t)
	}
}

// settle drops a pending deferral, keying the timer at the time and seq
// it was due at. The timer must not be queued.
func (t *Timer) settle() {
	if t.dueSeq != 0 {
		t.at, t.seq, t.dueSeq = t.due, t.dueSeq, 0
	}
}

// Fired reports whether the timer's callback has already run.
func (t *Timer) Fired() bool { return t != nil && t.fired }

// When returns the simulated time at which the timer fires: for a handle
// moved later while queued, the time it was moved to, not the key it
// still holds in the queue.
func (t *Timer) When() Time {
	if t.dueSeq != 0 {
		return t.due
	}
	return t.at
}

func (t *Timer) run() {
	if t.fn != nil {
		t.fn()
	} else if t.afn != nil {
		t.afn(t.arg)
	}
}

// eventHeap is a 4-ary min-heap of timers, specialized to *Timer. It
// orders events by (at, seq), a strict total order since every (at, seq)
// pair is unique. The timer wheel uses it for its overflow tier and to
// serve each bucket in order; one eventHeap over all pending events is the
// reference the wheel's pop order is tested against. The 4-ary layout
// halves tree depth versus binary, and the manual siftUp/siftDown avoid
// container/heap's interface boxing and indirect Less/Swap calls. Each
// timer carries its heap index so Cancel can remove it in O(log n) instead
// of leaving garbage to be drained at pop time.
type eventHeap []*Timer

// timerLess is the event order: timestamp, then FIFO among equal times.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(t *Timer) {
	es := append(*h, t)
	*h = es
	t.idx = len(es) - 1
	es.siftUp(t.idx)
}

func (h eventHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = t
	t.idx = i
}

// siftDown reports whether the element at i moved.
func (h eventHeap) siftDown(i int) bool {
	t := h[i]
	n := len(h)
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], t) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = t
	t.idx = i
	return i != start
}

func (h *eventHeap) pop() *Timer {
	es := *h
	n := len(es)
	if n == 0 {
		return nil
	}
	t := es[0]
	last := es[n-1]
	es[n-1] = nil
	es = es[:n-1]
	*h = es
	if n > 1 {
		es[0] = last
		last.idx = 0
		es.siftDown(0)
	}
	t.idx = -1
	return t
}

func (h *eventHeap) remove(t *Timer) {
	es := *h
	i := t.idx
	n := len(es)
	last := es[n-1]
	es[n-1] = nil
	es = es[:n-1]
	*h = es
	if i < n-1 {
		es[i] = last
		last.idx = i
		if !es.siftDown(i) {
			es.siftUp(i)
		}
	}
	t.idx = -1
}

// Scheduler is a discrete-event scheduler. Events execute strictly in
// timestamp order; events with equal timestamps execute in the order they
// were scheduled. A Scheduler is not safe for concurrent use: the simulation
// is single-threaded by design so results are deterministic. Parallelism
// lives one layer up, in internal/runner, which runs many independent
// schedulers at once.
type Scheduler struct {
	now     Time
	wheel   timerWheel
	seq     uint64
	stopped bool
	free    []*Timer
	lines   []*Line // every line made by NewLine
	early   *Line   // the line whose head entry is earliest; nil when all are empty
	lined   int     // entries waiting on lines (never in the wheel)
	// Executed counts events run, useful for progress reporting and tests.
	Executed uint64
	// PoolReuses counts pooled timers recycled from the free list
	// (observable in tests; it stays zero if only Rearm is used).
	PoolReuses uint64
}

// NewScheduler returns a scheduler with the clock at time zero.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	s.wheel.init()
	return s
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

func (s *Scheduler) schedule(t Time, fn func(), afn func(any), arg any, pooled bool) *Timer {
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	var ev *Timer
	if n := len(s.free); pooled && n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.PoolReuses++
		// Field by field: a composite literal is built on the stack and
		// copied, and that copy stalls on store forwarding. A released
		// timer already has sch, pooled and idx right.
		ev.at, ev.seq, ev.fn, ev.afn, ev.arg = t, s.seq, fn, afn, arg
		ev.cancelled, ev.fired = false, false
	} else {
		ev = &Timer{at: t, seq: s.seq, fn: fn, afn: afn, arg: arg, sch: s, pooled: pooled}
	}
	s.wheel.push(ev)
	return ev
}

// release returns a pooled timer to the free list once the scheduler is
// done with it (fired or cancelled). Caller-owned timers are left for the
// garbage collector because the caller may still hold the handle.
func (s *Scheduler) release(ev *Timer) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// Rearm schedules fn at absolute time t, recycling the caller-owned handle
// tm, so periodically re-armed timers — pacing gaps, retransmission
// timeouts — cost zero allocations in steady state. A nil tm allocates a
// fresh handle, so callers can unconditionally write
//
//	s.timer = sch.Rearm(s.timer, at, fn)
//
// The returned pointer is the caller's new handle (tm itself when reused);
// the old handle must not be retained separately.
//
// A still-queued tm moved to t at or after its queued time is not
// touched in the queue: Rearm takes a seq as for any other event and
// records t, that seq and fn on the handle, and the scheduler re-queues
// the handle at exactly that (t, seq) when its old key reaches the head
// (a retransmission timeout pushed later on every ACK costs three field
// writes, not a removal and an insert). A move to an earlier time
// removes tm from the queue and inserts it again. Either way the event
// runs where a fresh event armed by this call would.
func (s *Scheduler) Rearm(tm *Timer, t Time, fn func()) *Timer {
	if tm == nil {
		return s.schedule(t, fn, nil, nil, false)
	}
	if tm.pooled {
		panic("sim: Rearm on a pooled (no-handle) timer")
	}
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	if tm.idx >= 0 {
		if t >= tm.at {
			tm.due, tm.dueSeq, tm.fn = t, s.seq, fn
			return tm
		}
		tm.sch.wheel.remove(tm)
	}
	// Field by field, as in schedule; a caller-owned timer never has afn
	// or arg set.
	tm.at, tm.seq, tm.dueSeq, tm.fn, tm.sch = t, s.seq, 0, fn, s
	tm.cancelled, tm.fired = false, false
	s.wheel.push(tm)
	return tm
}

// AtFunc schedules fn at absolute time t with no handle: the event cannot
// be cancelled, and its Timer is pooled. Scheduling in the past is a
// programming error and panics, because it would silently reorder causality.
func (s *Scheduler) AtFunc(t Time, fn func()) {
	s.schedule(t, fn, nil, nil, true)
}

// AfterFunc schedules fn to run d after the current time with no handle.
func (s *Scheduler) AfterFunc(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, nil, nil, true)
}

// AfterArg schedules fn(arg) to run d after the current time with no
// handle. Passing the argument through the event (instead of capturing it)
// lets callers reuse one fn for every packet, so the per-event cost is
// zero allocations in steady state.
func (s *Scheduler) AfterArg(d Time, fn func(arg any), arg any) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, nil, fn, arg, true)
}

// Pending returns the number of events currently queued, every entry
// waiting on a Line included. A handle moved later counts once, and
// cancelled events are removed at Cancel time, so they are never counted.
func (s *Scheduler) Pending() int { return s.wheel.len() + s.lined }

// FreeTimers returns the current size of the timer free list (tests).
func (s *Scheduler) FreeTimers() int { return len(s.free) }

// Stop halts Run/RunUntil after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step runs the earliest event if it is due by end, and reports whether
// it did. The earliest event is the earliest line head or the wheel's
// head, whichever comes first by (at, seq); the wheel's head is read once
// and, when it goes first, popped from the slot that read found.
// Cancelled events never reach this point: Cancel removes them from the
// queue (releasing pooled ones) immediately.
func (s *Scheduler) step(end Time) bool {
	slot, ev := s.wheel.front()
	if l := s.early; l != nil && (ev == nil || l.before(ev.at, ev.seq)) {
		if l.ring[l.head].at > end {
			return false
		}
		s.runLine(l)
		return true
	}
	if ev == nil || ev.at > end {
		return false
	}
	s.fire(s.wheel.popFront(slot))
	return true
}

// fire runs a timer just taken off the wheel, or re-queues it at the key
// it was deferred to. A re-queue is not an event: it leaves the clock,
// Executed and Pending as they were.
func (s *Scheduler) fire(ev *Timer) {
	if ev.dueSeq != 0 {
		ev.settle()
		s.wheel.push(ev)
		return
	}
	s.now = ev.at
	ev.fired = true
	s.Executed++
	ev.run()
	s.release(ev)
}

// runLine runs line l's head entry, which must be the earliest event.
// The earliest line is found again before the entry runs, so the entry
// may push onto any line.
func (s *Scheduler) runLine(l *Line) {
	e := l.pop()
	s.lined--
	s.early = nil
	for _, o := range s.lines {
		if o.n > 0 && (s.early == nil || o.before(s.early.key())) {
			s.early = o
		}
	}
	s.now = e.at
	s.Executed++
	e.fn(e.arg)
}

// never is later than any event.
const never = Time(1<<63 - 1)

// Run executes events until none remain or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(never) {
	}
}

// RunUntil executes events with timestamps <= end, then sets the clock to
// end. Events scheduled beyond end remain queued.
func (s *Scheduler) RunUntil(end Time) {
	s.stopped = false
	for !s.stopped && s.step(end) {
	}
	if s.now < end {
		s.now = end
	}
}
