package sim

import (
	"testing"
)

// wheelModel is the reference FuzzWheelOrder checks the scheduler against:
// every pending event in one bare eventHeap, in shadow Timers that carry
// the event's id in arg. It mirrors the scheduler's seq counter, so the
// two agree on FIFO order among ties as long as they have agreed so far.
type wheelModel struct {
	heap  eventHeap
	seq   uint64
	now   Time
	child map[int]Time // id -> delay of the follow-up event id+1 it arms when it fires
}

func (m *wheelModel) push(at Time, id int) *Timer {
	m.seq++
	t := &Timer{at: at, seq: m.seq, arg: id}
	m.heap.push(t)
	return t
}

func (m *wheelModel) cancel(t *Timer) {
	if t.idx >= 0 {
		m.heap.remove(t)
	}
}

// runUntil pops everything due by end and returns the ids in pop order.
func (m *wheelModel) runUntil(end Time) []int {
	var order []int
	for len(m.heap) > 0 && m.heap[0].at <= end {
		t := m.heap.pop()
		m.now = t.at
		id := t.arg.(int)
		order = append(order, id)
		if d, ok := m.child[id]; ok {
			m.push(m.now+d, id+1)
		}
	}
	if m.now < end {
		m.now = end
	}
	return order
}

// FuzzWheelOrder: any sequence of Rearm(nil, …)/AfterFunc/AfterArg/Rearm/
// Cancel/RunUntil and Line.Push — with ties, events on slot and span boundaries,
// events beyond the span (overflow) that cascade back over many
// revolutions, and events armed from inside callbacks — runs in exactly
// the order one eventHeap over the same events pops them, and Pending()
// always equals the number of events the heap holds. The three lines have
// delays of zero, a few slots and more than the span, so a line head
// overflows and cascades; the model sees each line entry as the plain
// event AfterArg would have armed. Each operation is four bytes of the
// input: what to do, how to place the time (or which line), and a 16-bit
// magnitude.
func FuzzWheelOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1, 0})             // a tie, then run
	f.Add([]byte{0, 2, 0, 0, 0, 2, 1, 0, 0, 2, 2, 0, 5, 6, 1, 0}) // around a slot boundary
	f.Add([]byte{0, 3, 0, 0, 0, 3, 1, 0, 0, 3, 2, 0, 5, 5, 2, 0}) // around the span boundary
	f.Fuzz(func(t *testing.T, prog []byte) {
		const slot = Time(1) << wheelShift
		s := NewScheduler()
		m := &wheelModel{child: map[int]Time{}}
		var got []int
		record := func(arg any) { got = append(got, arg.(int)) }
		lines := []*Line{s.NewLine(0), s.NewLine(3*slot + 7), s.NewLine(wheelSpan + slot/2)}
		var handles, shadows []*Timer
		var lastAt Time
		nextID := 0

		// when places an event: never before now, and on purpose often
		// exactly where the wheel changes what it does with it.
		when := func(where byte, mag Time) Time {
			now := s.Now()
			at := now
			switch where % 8 {
			case 0:
				at = now + mag&3 // ties and near-ties
			case 1:
				at = now + mag*Microsecond
			case 2: // one before, on, one after the next slot boundary
				at = (now+slot)&^(slot-1) + mag%3 - 1
			case 3: // one before, on, one after the end of the window
				at = s.wheel.base + wheelSpan + mag%3 - 1
			case 4: // whole slots ahead, up to 64 revolutions
				at = now + mag*slot
			case 5: // whole revolutions ahead
				at = now + (mag%5)*wheelSpan + mag>>8
			case 6:
				at = now + mag*Millisecond
			case 7:
				at = lastAt // tie with the previous event, whenever that was
			}
			if at < now {
				at = now
			}
			lastAt = at
			return at
		}
		check := func(op string, want []int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("after %s: scheduler ran %d events, the heap %d", op, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after %s: order diverges at event %d: scheduler ran %d, the heap %d", op, i, got[i], want[i])
				}
			}
			got = got[:0]
			if s.Pending() != len(m.heap) {
				t.Fatalf("after %s: Pending() = %d, the heap holds %d", op, s.Pending(), len(m.heap))
			}
		}

		for ; len(prog) >= 4; prog = prog[4:] {
			op, where, mag := prog[0]%16, prog[1], Time(prog[2])|Time(prog[3])<<8
			at := when(where, mag)
			id := nextID
			nextID += 2 // id+1 is the follow-up, if the event arms one
			switch op {
			case 0:
				handles = append(handles, s.Rearm(nil, at, func() { record(id) }))
				shadows = append(shadows, m.push(at, id))
			case 1:
				s.AfterFunc(at-s.Now(), func() { record(id) })
				m.push(at, id)
			case 2:
				s.AfterArg(at-s.Now(), record, id)
				m.push(at, id)
			case 3:
				if len(handles) == 0 {
					continue
				}
				i := int(mag) % len(handles)
				handles[i] = s.Rearm(handles[i], at, func() { record(id) })
				m.cancel(shadows[i])
				shadows[i] = m.push(at, id)
			case 4:
				if len(handles) == 0 {
					continue
				}
				i := int(mag) % len(handles)
				handles[i].Cancel()
				m.cancel(shadows[i])
			case 5:
				s.RunUntil(at)
				check("RunUntil", m.runUntil(at))
				if s.Now() != m.now {
					t.Fatalf("after RunUntil(%v): Now() = %v, want %v", at, s.Now(), m.now)
				}
				continue
			case 6, 7: // an event that arms a follow-up when it fires
				d := Time(where) * slot / 16
				s.AtFunc(at, func() {
					record(id)
					s.AfterArg(d, record, id+1)
				})
				m.child[id] = d
				m.push(at, id)
			case 8, 9, 10, 11: // a line entry, which may push a follow-up on a line
				l := lines[where%3]
				fn := record
				if where&4 != 0 {
					next := lines[(where>>3)%3]
					fn = func(arg any) {
						record(arg)
						next.Push(record, id+1)
					}
					m.child[id] = next.d
				}
				l.Push(fn, id)
				lastAt = s.Now() + l.d
				m.push(lastAt, id)
			default: // an event that pushes a follow-up on a line when it fires
				l := lines[where%3]
				s.AtFunc(at, func() {
					record(id)
					l.Push(record, id+1)
				})
				m.child[id] = l.d
				m.push(at, id)
			}
			check("arming", nil)
		}
		s.Run()
		check("Run", m.runUntil(1<<62))
	})
}

// TestWheelOverflowCascade pins the overflow path: events far beyond the
// wheel span must still fire in exact (at, seq) order as the window
// advances across multiple revolutions.
func TestWheelOverflowCascade(t *testing.T) {
	s := NewScheduler()
	var got []Time
	// Events every 100ms out to 3s — ~11 wheel revolutions — plus ties.
	for i := 30; i >= 0; i-- { // scheduled in reverse time order
		at := Time(i) * 100 * Millisecond
		s.AtFunc(at, func() { got = append(got, at) })
		s.AtFunc(at, func() { got = append(got, at) }) // tie: seq order
	}
	s.Run()
	if len(got) != 62 {
		t.Fatalf("ran %d events, want 62", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestWheelPendingAndCancel checks bookkeeping across both tiers.
func TestWheelPendingAndCancel(t *testing.T) {
	s := NewScheduler()
	near := s.Rearm(nil, Millisecond, func() {})
	far := s.Rearm(nil, 10*Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	near.Cancel()
	far.Cancel()
	if s.Pending() != 0 {
		t.Fatalf("Pending after cancels = %d, want 0", s.Pending())
	}
	s.Run()
	if s.Executed != 0 {
		t.Fatalf("cancelled events ran: Executed = %d", s.Executed)
	}
}

// churnPopulation arms n self-rearming timers with a precomputed gap
// table: 90% pace-like gaps (10µs–1ms), 10% RTO-like (100–300ms, long
// enough that some land in the wheel's overflow heap). Every closure is
// built up front so the steady state allocates nothing.
func churnPopulation(s *Scheduler, n int) {
	rng := NewRand(7)
	gaps := make([]Time, 4096)
	for i := range gaps {
		if i%10 == 0 {
			gaps[i] = Time(100+rng.Intn(200)) * Millisecond
		} else {
			gaps[i] = Time(10+rng.Intn(990)) * Microsecond
		}
	}
	timers := make([]*Timer, n)
	gi := 0
	for i := 0; i < n; i++ {
		i := i
		var fire func()
		fire = func() {
			gi++
			timers[i] = s.Rearm(timers[i], s.Now()+gaps[gi&4095], fire)
		}
		timers[i] = s.Rearm(nil, Time(i)*Microsecond, fire)
	}
}

// BenchmarkSchedulerChurn runs the event queue under 10k concurrent
// self-rearming timers — the load of a 10k-flow churn scenario. One op is
// one event (pop + rearm push).
func BenchmarkSchedulerChurn(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		s := NewScheduler()
		churnPopulation(s, 10000)
		// Warm ~10 wheel revolutions so every bucket and the overflow
		// heap reach steady-state capacity (append doubles bucket slices
		// for a few revolutions; see the alloc test).
		s.RunUntil(3 * Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.step()
		}
	})
}

// TestSchedulerWheelChurnAllocFree asserts the wheel's steady state
// allocates nothing under the 10k-timer churn load.
func TestSchedulerWheelChurnAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-timer warmup")
	}
	s := NewScheduler()
	churnPopulation(s, 10000)
	// Warm for ~10 wheel revolutions: bucket capacities grow toward the
	// maximum occupancy ever seen (append doubling), so the steady state
	// is allocation-free only once every hot bucket has seen its max.
	s.RunUntil(3 * Second)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			s.step()
		}
	})
	if allocs > 0 {
		t.Fatalf("wheel churn allocates %.3f/op in steady state, want 0", allocs)
	}
}
