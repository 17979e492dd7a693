package sim

import (
	"math"
	"sort"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds: got %v, want 1.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("FromSeconds: got %v, want 250ms", got)
	}
	if got := (2 * Millisecond).Millis(); got != 2 {
		t.Fatalf("Millis: got %v, want 2", got)
	}
	if s := (12340 * Millisecond).String(); s != "12.340s" {
		t.Fatalf("String: got %q", s)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.AtFunc(30*Millisecond, func() { order = append(order, 3) })
	s.AtFunc(10*Millisecond, func() { order = append(order, 1) })
	s.AtFunc(20*Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtFunc(Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.Rearm(nil, Millisecond, func() { fired = true })
	tm.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Fired() {
		t.Fatal("Fired() true for cancelled timer")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.AfterFunc(10*Millisecond, tick)
		}
	}
	s.AfterFunc(0, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 40*Millisecond {
		t.Fatalf("clock = %v, want 40ms", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d * Millisecond
		s.AtFunc(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(25 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 25*Millisecond {
		t.Fatalf("clock = %v, want 25ms", s.Now())
	}
	s.RunUntil(100 * Millisecond)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.AtFunc(10*Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.AtFunc(5*Millisecond, func() {})
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 3 {
			s.Stop()
		}
		s.AfterFunc(Millisecond, tick)
	}
	s.AfterFunc(0, tick)
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop should halt)", count)
	}
}

func TestSchedulerTimerPoolReuse(t *testing.T) {
	s := NewScheduler()
	// Fire a pooled event; its Timer must land on the free list.
	ran := 0
	s.AfterFunc(Millisecond, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("pooled event ran %d times, want 1", ran)
	}
	if s.FreeTimers() != 1 {
		t.Fatalf("free list has %d timers after fire, want 1", s.FreeTimers())
	}
	// The next pooled event must reuse it rather than allocate.
	s.AfterArg(Millisecond, func(arg any) { ran += arg.(int) }, 2)
	if s.FreeTimers() != 0 {
		t.Fatalf("free list has %d timers after reschedule, want 0", s.FreeTimers())
	}
	s.Run()
	if ran != 3 || s.PoolReuses != 1 {
		t.Fatalf("ran=%d reuses=%d, want 3 and 1", ran, s.PoolReuses)
	}
}

func TestSchedulerPoolCancelLifecycle(t *testing.T) {
	// Cancelled caller-owned timers are discarded but never recycled: the
	// caller still holds the handle, so recycling would let a stale Cancel
	// kill an unrelated future event. Pooled events interleaved with them
	// must keep firing in order.
	s := NewScheduler()
	var order []int
	tm := s.Rearm(nil, 2*Millisecond, func() { order = append(order, -1) })
	s.AtFunc(1*Millisecond, func() { order = append(order, 1) })
	s.AtFunc(3*Millisecond, func() { order = append(order, 3) })
	tm.Cancel()
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
	if tm.Fired() {
		t.Fatal("cancelled timer reports fired")
	}
	// Both pooled timers recycled; the cancelled caller-owned one is not.
	if s.FreeTimers() != 2 {
		t.Fatalf("free list = %d, want 2", s.FreeTimers())
	}
	// A stale Cancel on the fired handle must not disturb future events.
	tm.Cancel()
	fired := false
	s.AfterFunc(Millisecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event after stale Cancel did not fire")
	}
}

func TestSchedulerPooledSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	// Warm the pool.
	s.AfterFunc(0, func() {})
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(Microsecond, func() {})
		s.Run()
	})
	if allocs > 0.1 {
		t.Fatalf("pooled scheduling allocates %.2f/op, want 0", allocs)
	}
}

func TestSchedulerCancelRemovesImmediately(t *testing.T) {
	// Cancel removes the event from the queue on the spot — there is no
	// lazy cancelled-event drain left in either Run or RunUntil, so
	// Pending drops at Cancel time on both paths.
	t.Run("Run", func(t *testing.T) {
		s := NewScheduler()
		fired := false
		tm := s.Rearm(nil, 2*Millisecond, func() { fired = true })
		s.AtFunc(3*Millisecond, func() {})
		if s.Pending() != 2 {
			t.Fatalf("Pending = %d, want 2", s.Pending())
		}
		tm.Cancel()
		if s.Pending() != 1 {
			t.Fatalf("Pending after Cancel = %d, want 1 (eager removal)", s.Pending())
		}
		s.Run()
		if fired {
			t.Fatal("cancelled event fired via Run")
		}
	})
	t.Run("RunUntil", func(t *testing.T) {
		s := NewScheduler()
		fired := false
		tm := s.Rearm(nil, 2*Millisecond, func() { fired = true })
		s.AtFunc(3*Millisecond, func() {})
		tm.Cancel()
		if s.Pending() != 1 {
			t.Fatalf("Pending after Cancel = %d, want 1 (eager removal)", s.Pending())
		}
		s.RunUntil(10 * Millisecond)
		if fired {
			t.Fatal("cancelled event fired via RunUntil")
		}
		if s.Executed != 1 {
			t.Fatalf("Executed = %d, want 1", s.Executed)
		}
	})
	// Cancelling mid-queue (not the earliest, not the last) must keep the
	// heap ordered on both paths.
	t.Run("MidQueueOrder", func(t *testing.T) {
		s := NewScheduler()
		var order []int
		var tms []*Timer
		for i := 1; i <= 9; i++ {
			i := i
			tms = append(tms, s.Rearm(nil, Time(i)*Millisecond, func() { order = append(order, i) }))
		}
		tms[4].Cancel()
		tms[1].Cancel()
		s.RunUntil(6 * Millisecond)
		s.Run()
		want := []int{1, 3, 4, 6, 7, 8, 9}
		if len(order) != len(want) {
			t.Fatalf("order = %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order = %v, want %v", order, want)
			}
		}
	})
}

func TestSchedulerRearm(t *testing.T) {
	s := NewScheduler()
	// A nil handle allocates; subsequent rearms recycle the same struct.
	var tm *Timer
	count := 0
	tm = s.Rearm(tm, Millisecond, func() { count++ })
	first := tm
	tm = s.Rearm(tm, 2*Millisecond, func() { count += 10 }) // displaces the pending event
	if tm != first {
		t.Fatal("Rearm did not reuse the caller-owned Timer struct")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (old event removed)", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10 (only the rearmed event runs)", count)
	}
	if s.Now() != 2*Millisecond {
		t.Fatalf("clock = %v, want 2ms", s.Now())
	}
	// Rearming a fired handle reuses it too.
	tm2 := s.Rearm(tm, 5*Millisecond, func() { count++ })
	if tm2 != first {
		t.Fatal("Rearm of a fired handle did not reuse the struct")
	}
	s.Run()
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
}

// TestRearmLaterStaysQueued: a pending handle moved later keeps its place
// in the queue and runs once, at the last time it was moved to, with the
// last fn, in the seq order that last Rearm took. Moving it earlier than
// its queued key, or cancelling it, acts on the queue at once.
func TestRearmLaterStaysQueued(t *testing.T) {
	s := NewScheduler()
	var got []string
	tag := func(name string) func() { return func() { got = append(got, name) } }
	tm := s.Rearm(nil, 2*Millisecond, tag("first"))
	at, seq, idx := tm.at, tm.seq, tm.idx
	s.AtFunc(7*Millisecond, tag("tie armed before")) // same time, earlier seq
	tm = s.Rearm(tm, 5*Millisecond, tag("middle"))
	tm = s.Rearm(tm, 7*Millisecond, tag("last"))
	s.AtFunc(7*Millisecond, tag("tie armed after"))
	if tm.at != at || tm.seq != seq || tm.idx != idx {
		t.Fatalf("moved later, the handle left its queue slot: (%v, %d, %d) -> (%v, %d, %d)", at, seq, idx, tm.at, tm.seq, tm.idx)
	}
	if tm.When() != 7*Millisecond {
		t.Fatalf("When() = %v, want the due time 7ms", tm.When())
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3 (the handle counts once)", s.Pending())
	}
	// Past its queued key: the handle is re-queued, not run.
	s.RunUntil(4 * Millisecond)
	if s.Executed != 0 || s.Pending() != 3 || len(got) != 0 || tm.Fired() {
		t.Fatalf("at 4ms: Executed = %d, Pending = %d, ran %v, fired %v; want nothing run and 3 pending", s.Executed, s.Pending(), got, tm.Fired())
	}
	if tm.When() != 7*Millisecond || s.Now() != 4*Millisecond {
		t.Fatalf("at 4ms: When() = %v, Now() = %v", tm.When(), s.Now())
	}
	s.Run()
	want := []string{"tie armed before", "last", "tie armed after"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if s.Executed != 3 || s.Pending() != 0 || !tm.Fired() || s.Now() != 7*Millisecond {
		t.Fatalf("Executed = %d, Pending = %d, fired %v, Now() = %v", s.Executed, s.Pending(), tm.Fired(), s.Now())
	}

	t.Run("alone", func(t *testing.T) {
		s := NewScheduler()
		runs := 0
		tm := s.Rearm(nil, Millisecond, func() { runs++ })
		for i := 2; i <= 6; i++ {
			tm = s.Rearm(tm, Time(i)*Millisecond, func() { runs += 10 })
			if s.Pending() != 1 || s.wheel.len() != 1 {
				t.Fatalf("Pending = %d, wheel holds %d; want 1 and 1", s.Pending(), s.wheel.len())
			}
		}
		s.Run()
		if runs != 10 || s.Executed != 1 || s.Now() != 6*Millisecond {
			t.Fatalf("runs = %d, Executed = %d, Now() = %v; want 10, 1, 6ms", runs, s.Executed, s.Now())
		}
	})
	t.Run("cancel", func(t *testing.T) {
		s := NewScheduler()
		tm := s.Rearm(nil, Millisecond, func() { t.Fatal("cancelled handle ran") })
		tm = s.Rearm(tm, 3*Millisecond, func() { t.Fatal("cancelled handle ran") })
		tm.Cancel()
		if s.Pending() != 0 || s.wheel.len() != 0 || tm.idx != -1 {
			t.Fatalf("Pending = %d, wheel holds %d, idx = %d after Cancel", s.Pending(), s.wheel.len(), tm.idx)
		}
		if tm.When() != 3*Millisecond {
			t.Fatalf("When() = %v after Cancel, want 3ms", tm.When())
		}
		s.Run()
		if s.Executed != 0 {
			t.Fatalf("Executed = %d, want 0", s.Executed)
		}
	})
	t.Run("earlier", func(t *testing.T) {
		s := NewScheduler()
		var ran []Time
		fn := func() { ran = append(ran, s.Now()) }
		tm := s.Rearm(nil, 5*Millisecond, fn)
		tm = s.Rearm(tm, 8*Millisecond, fn) // deferred
		tm = s.Rearm(tm, 3*Millisecond, fn) // before the queued key: moves
		if tm.at != 3*Millisecond || tm.dueSeq != 0 || tm.When() != 3*Millisecond {
			t.Fatalf("queued at %v (dueSeq %d, When %v), want 3ms and no deferral", tm.at, tm.dueSeq, tm.When())
		}
		s.Run()
		if len(ran) != 1 || ran[0] != 3*Millisecond {
			t.Fatalf("ran at %v, want once at 3ms", ran)
		}
	})
}

// TestRearmPastLeavesHandle: a Rearm into the past panics before it
// touches the handle, so a caller that recovers still has its pending
// event.
func TestRearmPastLeavesHandle(t *testing.T) {
	s := NewScheduler()
	ran := false
	tm := s.Rearm(nil, 5*Millisecond, func() { ran = true })
	s.RunUntil(2 * Millisecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rearm into the past did not panic")
			}
		}()
		s.Rearm(tm, Millisecond, func() {})
	}()
	if s.Pending() != 1 || tm.When() != 5*Millisecond {
		t.Fatalf("after the panic: Pending = %d, When() = %v; want 1 and 5ms", s.Pending(), tm.When())
	}
	s.Run()
	if !ran {
		t.Fatal("the handle's event was lost to the panicking Rearm")
	}
}

// TestLinesBesideTheWheel: line entries never enter the wheel but count in
// Pending and Executed, and they interleave with wheel events in exact
// (at, seq) order, same-nanosecond ties included, whichever side armed
// first and whether armed before a run or from inside a callback.
func TestLinesBesideTheWheel(t *testing.T) {
	s := NewScheduler()
	lines := []*Line{s.NewLine(0), s.NewLine(Millisecond), s.NewLine(3 * Millisecond)}
	type key struct {
		at Time
		k  int
	}
	var want []key // every event armed, by id; k counts arming calls as seq does
	var got []int
	arm := func(at Time) int {
		want = append(want, key{at, len(want)})
		return len(want) - 1
	}
	record := func(arg any) { got = append(got, arg.(int)) }

	for i, l := range lines {
		for j := 0; j <= i; j++ {
			l.Push(record, arm(s.Now()+l.d))
		}
	}
	if s.wheel.len() != 0 || s.Pending() != 6 {
		t.Fatalf("wheel holds %d, Pending = %d; want 0 and 6", s.wheel.len(), s.Pending())
	}
	for round := 0; round < 4; round++ {
		now := s.Now()
		// Ties with each line's entries, armed after them.
		for _, l := range lines {
			s.AfterArg(l.d, record, arm(now+l.d))
		}
		// Events that push onto every line when they fire, so entries
		// armed inside callbacks tie with wheel events armed earlier.
		id := arm(now + 500*Microsecond)
		s.AtFunc(now+500*Microsecond, func() {
			got = append(got, id)
			for _, l := range lines {
				l.Push(record, arm(s.Now()+l.d))
			}
		})
		s.AfterArg(500*Microsecond+Millisecond, record, arm(now+500*Microsecond+Millisecond))
		// More entries, pushed after those wheel events at the same times.
		for _, l := range lines {
			l.Push(record, arm(now+l.d))
		}
		s.RunUntil(now + 700*Microsecond)
	}
	s.Run()

	order := make([]int, len(want))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := want[order[a]], want[order[b]]
		return x.at < y.at || x.at == y.at && x.k < y.k
	})
	if len(got) != len(order) {
		t.Fatalf("ran %d events, armed %d", len(got), len(order))
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("event %d: ran id %d, want %d (at %v)", i, got[i], order[i], want[order[i]].at)
		}
	}
	if s.Executed != uint64(len(want)) || s.Pending() != 0 {
		t.Fatalf("Executed = %d, Pending = %d; want %d and 0", s.Executed, s.Pending(), len(want))
	}
}

func TestSchedulerRearmSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	tm := s.Rearm(nil, Microsecond, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		tm = s.Rearm(tm, s.Now()+Microsecond, fn)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("Rearm allocates %.2f/op in steady state, want 0", allocs)
	}
}

// TestSchedulerHeapMatchesReference drives the 4-ary heap through a
// randomized schedule/cancel workload and checks the execution order
// against the (at, seq) total order computed independently.
func TestSchedulerHeapMatchesReference(t *testing.T) {
	rng := NewRand(99)
	s := NewScheduler()
	type ev struct {
		at  Time
		id  int
		tm  *Timer
		cut bool
	}
	var evs []*ev
	var got []int
	for i := 0; i < 500; i++ {
		at := Time(rng.Intn(50)) * Millisecond // many ties to exercise seq order
		e := &ev{at: at, id: i}
		e.tm = s.Rearm(nil, at, func() { got = append(got, e.id) })
		evs = append(evs, e)
	}
	// Cancel a third of them, including repeats and already-cancelled.
	for i := 0; i < 200; i++ {
		e := evs[rng.Intn(len(evs))]
		e.tm.Cancel()
		e.cut = true
	}
	s.Run()
	var want []int
	for _, e := range evs { // evs is already in (at, seq)-stable order per at via stable scan
		if !e.cut {
			want = append(want, e.id)
		}
	}
	// Reference order: sort by (at, id) — id order equals seq order here.
	sort.SliceStable(want, func(i, j int) bool { return evs[want[i]].at < evs[want[j]].at })
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// BenchmarkSchedulerPooledChurn measures the event queue under the
// simulator's real mix: pooled fire-and-forget events plus a rearmed
// cancellable timer, all allocation-free in steady state. (The 10k-timer
// load is BenchmarkSchedulerChurn in wheel_test.go.)
func BenchmarkSchedulerPooledChurn(b *testing.B) {
	s := NewScheduler()
	noop := func() {}
	anoop := func(any) {}
	var tm *Timer
	// Warm the pool and the rearmable handle.
	for i := 0; i < 64; i++ {
		s.AfterFunc(Time(i)*Microsecond, noop)
	}
	tm = s.Rearm(tm, 100*Microsecond, noop)
	s.Run()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(Microsecond, noop)
		s.AfterArg(2*Microsecond, anoop, nil)
		s.AfterFunc(3*Microsecond, noop)
		tm = s.Rearm(tm, s.Now()+2*Microsecond, noop) // rearmed before firing...
		tm = s.Rearm(tm, s.Now()+4*Microsecond, noop) // ...and again (removal path)
		s.Run()
	}
}

func TestSchedulerChurnAllocFree(t *testing.T) {
	s := NewScheduler()
	noop := func() {}
	anoop := func(any) {}
	var tm *Timer
	for i := 0; i < 64; i++ {
		s.AfterFunc(Time(i)*Microsecond, noop)
	}
	tm = s.Rearm(tm, 100*Microsecond, noop)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(Microsecond, noop)
		s.AfterArg(2*Microsecond, anoop, nil)
		tm = s.Rearm(tm, s.Now()+2*Microsecond, noop)
		tm = s.Rearm(tm, s.Now()+4*Microsecond, noop)
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("scheduler churn allocates %.2f/op in steady state, want 0", allocs)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(42, "rate=96/rtt=50")
	b := DeriveSeed(42, "rate=96/rtt=50")
	if a != b {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(42, "rate=96/rtt=100") == a {
		t.Fatal("DeriveSeed ignores label")
	}
	if DeriveSeed(43, "rate=96/rtt=50") == a {
		t.Fatal("DeriveSeed ignores base seed")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(7)
	s1 := r.Split("a")
	r2 := NewRand(7)
	s2 := r2.Split("a")
	if s1.Float64() != s2.Float64() {
		t.Fatal("Split not deterministic for same label/parent state")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(1)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.ExpTime(5 * Millisecond).Millis()
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~5", mean)
	}
}

func TestExpTimeNonNegative(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if d := r.ExpTime(10 * Millisecond); d < 0 {
			t.Fatal("negative ExpTime")
		}
	}
}
