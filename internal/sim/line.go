package sim

// Line is a constant-delay FIFO: every Push delivers its fn(arg) exactly
// d after the push, as AfterArg(d, fn, arg) would, but the entries wait
// in a ring owned by the line and only the head one sits in the event
// queue, on the line's own Timer. A wire crossed by hundreds of packets
// costs the wheel one event instead of hundreds.
//
// The order is exact: Push takes its seq from the scheduler at push time,
// as AfterArg does, and entries pushed at non-decreasing times with one
// delay are already sorted by (at, seq), so the head is always the line's
// earliest event and the scheduler runs every entry exactly where the
// equivalent AfterArg event would have run. Executed counts each entry
// once, and Pending counts every waiting entry.
type Line struct {
	tm   Timer // the head entry's event; queued iff the line is non-empty
	d    Time
	ring []lineEntry // power-of-two ring, oldest entry at head
	head int
	n    int
}

type lineEntry struct {
	at  Time
	seq uint64
	fn  func(arg any)
	arg any
}

// NewLine returns an empty line delivering every entry d after its push
// (a negative d is 0, as for AfterArg).
func (s *Scheduler) NewLine(d Time) *Line {
	if d < 0 {
		d = 0
	}
	l := &Line{d: d, ring: make([]lineEntry, 8)}
	l.tm = Timer{sch: s, idx: -1}
	l.tm.fn = l.fire
	return l
}

// Push schedules fn(arg) to run d after the current time.
func (l *Line) Push(fn func(arg any), arg any) {
	s := l.tm.sch
	s.seq++
	if l.n == len(l.ring) {
		l.grow()
	}
	at := s.now + l.d
	// Field by field, as in Scheduler.schedule.
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	e.at, e.seq, e.fn, e.arg = at, s.seq, fn, arg
	l.n++
	if l.n == 1 {
		l.arm(at, s.seq)
	} else {
		s.lined++
	}
}

// arm queues the line's timer for the head entry. Only the fields that
// change are written: the rest of the Timer stays as NewLine set it.
func (l *Line) arm(at Time, seq uint64) {
	l.tm.at, l.tm.seq, l.tm.fired = at, seq, false
	l.tm.sch.wheel.push(&l.tm)
}

// fire is the line timer's callback: it pops the head entry, queues the
// timer for the next one, then runs the popped entry.
func (l *Line) fire() {
	e := &l.ring[l.head]
	fn, arg := e.fn, e.arg
	e.fn, e.arg = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		l.tm.sch.lined--
		next := &l.ring[l.head]
		l.arm(next.at, next.seq)
	}
	fn(arg)
}

func (l *Line) grow() {
	ring := make([]lineEntry, 2*len(l.ring))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}
