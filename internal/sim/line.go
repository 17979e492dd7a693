package sim

// Line is a constant-delay FIFO: every Push delivers its fn(arg) exactly
// d after the push, as AfterArg(d, fn, arg) would, but the entries wait
// in a ring owned by the line and none of them enters the timer wheel.
// The scheduler keeps its lines beside the wheel and, on every step,
// runs whichever comes first by (at, seq): the wheel's head or the
// earliest line head. A wire crossed by hundreds of packets costs the
// wheel nothing.
//
// The order is exact: Push takes its seq from the scheduler at push time,
// as AfterArg does, and entries pushed at non-decreasing times with one
// delay are already sorted by (at, seq), so the head is always the line's
// earliest event and the scheduler runs every entry exactly where the
// equivalent AfterArg event would have run. Executed counts each entry
// once, and Pending counts every waiting entry.
type Line struct {
	sch  *Scheduler
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
// (a negative d is 0, as for AfterArg). The scheduler finds its earliest
// line head by a scan over every line it made, so a scheduler is meant
// to hold a handful of lines (one per distinct wire delay), not one per
// flow.
func (s *Scheduler) NewLine(d Time) *Line {
	if d < 0 {
		d = 0
	}
	l := &Line{sch: s, d: d, ring: make([]lineEntry, 8)}
	s.lines = append(s.lines, l)
	return l
}

// Push schedules fn(arg) to run d after the current time.
func (l *Line) Push(fn func(arg any), arg any) {
	s := l.sch
	s.seq++
	if l.n == len(l.ring) {
		l.grow()
	}
	at := s.now + l.d
	// Field by field, as in Scheduler.schedule.
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	e.at, e.seq, e.fn, e.arg = at, s.seq, fn, arg
	l.n++
	s.lined++
	// Only a push onto an empty line changes its head.
	if l.n == 1 && (s.early == nil || l.before(s.early.key())) {
		s.early = l
	}
}

// before reports whether the line's head entry precedes the key (at, seq).
// The line must not be empty.
func (l *Line) before(at Time, seq uint64) bool {
	e := &l.ring[l.head]
	return e.at < at || e.at == at && e.seq < seq
}

// key returns the (at, seq) of the line's head entry. The line must not
// be empty.
func (l *Line) key() (Time, uint64) {
	e := &l.ring[l.head]
	return e.at, e.seq
}

// pop removes the head entry and returns it by value.
func (l *Line) pop() lineEntry {
	e := &l.ring[l.head]
	out := *e
	e.fn, e.arg = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return out
}

func (l *Line) grow() {
	ring := make([]lineEntry, 2*len(l.ring))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}
