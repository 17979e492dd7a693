package stats

import (
	"math"
	"slices"
	"sort"
	"testing"

	"nimbus/internal/sim"
)

// TestQueueMatchesSlice drives a Queue and a plain slice with the same
// random pushes, front pops and back pops, in phases that fill, drain
// and refill it — so the ring wraps, grows while wrapped, and runs empty
// — and holds every element and the length equal after each operation.
func TestQueueMatchesSlice(t *testing.T) {
	rng := sim.NewRand(1)
	var q Queue[int]
	var ref []int
	next := 0
	for _, pushOdds := range []int{8, 2, 5, 9, 1, 5} { // pushes per 10 operations
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < pushOdds:
				q.Push(next)
				ref = append(ref, next)
				next++
			case len(ref) > 0 && r%2 == 0:
				q.PopFront()
				ref = ref[1:]
			case len(ref) > 0:
				q.PopBack()
				ref = ref[:len(ref)-1]
			}
			if q.Len() != len(ref) {
				t.Fatalf("Len %d, slice %d", q.Len(), len(ref))
			}
			for i, want := range ref {
				if got := *q.At(i); got != want {
					t.Fatalf("At(%d) = %d, slice %d (len %d, ring of %d from %d)", i, got, want, len(ref), len(q.buf), q.head)
				}
			}
		}
	}
	if n := len(q.buf); n&(n-1) != 0 || n > 4*next {
		t.Fatalf("ring of %d slots after %d pushes", n, next)
	}
}

// TestQueueAllocatesTwiceItsPeak: a queue that reaches n elements has
// allocated one ring per doubling, under 2n slots in all, and nothing
// more however long it then slides.
func TestQueueAllocatesTwiceItsPeak(t *testing.T) {
	var q Queue[[2]int64]
	allocs := testing.AllocsPerRun(1, func() {
		q = Queue[[2]int64]{}
		for i := 0; i < 1000; i++ {
			q.Push([2]int64{})
		}
		for i := 0; i < 100000; i++ {
			q.PopFront()
			q.Push([2]int64{})
		}
	})
	if allocs != 11 || len(q.buf) != 1024 { // 1, 2, 4, ... 1024
		t.Fatalf("%v allocations, ring of %d slots; want 11 and 1024", allocs, len(q.buf))
	}
}

// sliceExtremum is the windowed extremum as it was before the ring: two
// parallel slices, dominated samples cut from the back, expired ones
// re-sliced from the front.
type sliceExtremum struct {
	window int64
	keys   []int64
	vals   []float64
	min    bool
}

func (w *sliceExtremum) add(t int64, v float64) float64 {
	for len(w.vals) > 0 && (w.min && w.vals[len(w.vals)-1] >= v || !w.min && w.vals[len(w.vals)-1] <= v) {
		w.vals = w.vals[:len(w.vals)-1]
		w.keys = w.keys[:len(w.keys)-1]
	}
	w.keys = append(w.keys, t)
	w.vals = append(w.vals, v)
	i := 0
	for i < len(w.keys)-1 && w.keys[i] < t-w.window {
		i++
	}
	w.keys, w.vals = w.keys[i:], w.vals[i:]
	return w.vals[0]
}

// TestWindowedExtremaMatchSlices: on the ring the two filters return what
// the slice-backed ones returned, to the bit, over a random stream with
// runs of rising and falling values, ties and gaps longer than the
// window; and once warm they record without allocating.
func TestWindowedExtremaMatchSlices(t *testing.T) {
	rng := sim.NewRand(7)
	const window = 1000
	wmax, wmin := NewWindowedMax(window), NewWindowedMin(window)
	refMax, refMin := &sliceExtremum{window: window}, &sliceExtremum{window: window, min: true}
	if wmax.Max() != 0 || wmin.Min() != 0 {
		t.Fatal("empty filters do not read 0")
	}
	var now int64
	level := 0.0
	step := func() float64 {
		now += int64(rng.Intn(20))
		if rng.Intn(200) == 0 {
			now += 3 * window
		}
		switch rng.Intn(4) {
		case 0:
			level += rng.Float64() // a rising run: the max filter holds one sample, the min filter all of them
		case 1:
			level -= rng.Float64()
		case 2:
			level = math.Floor(level) // ties
		}
		wmax.Add(now, level)
		wmin.Add(now, level)
		return level
	}
	for i := 0; i < 50000; i++ {
		v := step()
		wantMax, wantMin := refMax.add(now, v), refMin.add(now, v)
		if !sameBits(wmax.Max(), wantMax) || !sameBits(wmin.Min(), wantMin) {
			t.Fatalf("add %d: Max %v Min %v, slices %v %v", i, wmax.Max(), wmin.Min(), wantMax, wantMin)
		}
	}
	if allocs := testing.AllocsPerRun(5000, func() { step() }); allocs != 0 {
		t.Fatalf("warm WindowedMax.Add + WindowedMin.Add allocate %v/op, want 0", allocs)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMergeSortedMatchesFlatSort: walking sorted runs in order returns
// the moments and quantiles of the sorted concatenation, to the bit —
// with empty runs, runs of one, ties across runs, and no quantiles asked.
func TestMergeSortedMatchesFlatSort(t *testing.T) {
	rng := sim.NewRand(3)
	for trial := 0; trial < 300; trial++ {
		var runs [][]float64
		var flat []float64
		for r := rng.Intn(8); r > 0; r-- {
			run := make([]float64, rng.Intn(40)*rng.Intn(2))
			for i := range run {
				run[i] = float64(rng.Intn(50)) / 7
			}
			sort.Float64s(run)
			runs = append(runs, run)
			flat = append(flat, run...)
		}
		sort.Float64s(flat)
		ps := []float64{0, 0.1, 0.5, 0.95, 1, 0.5}[:rng.Intn(7)]
		var want Welford
		for _, x := range flat {
			want.Add(x)
		}
		got, qs := MergeSorted(runs, func(x float64) float64 { return x }, ps...)
		if got != want {
			t.Fatalf("trial %d: moments %+v, flat %+v", trial, got, want)
		}
		if wantQs := Percentiles(flat, ps...); !slices.EqualFunc(qs, wantQs, sameBits) {
			t.Fatalf("trial %d: quantiles %v of %v = %v, flat %v", trial, ps, flat, qs, wantQs)
		}
	}
}

// TestMergeSortedConvertsAsItConsumes: runs of integers, ordered as
// integers, read through a monotone conversion that maps several of them
// to one value, give what sorting the converted values gives, to the bit.
func TestMergeSortedConvertsAsItConsumes(t *testing.T) {
	rng := sim.NewRand(4)
	ms := func(v uint32) float64 { return float64(v/3) / 7 }
	for trial := 0; trial < 300; trial++ {
		var runs [][]uint32
		var flat []float64
		for r := rng.Intn(8); r > 0; r-- {
			run := make([]uint32, rng.Intn(40))
			for i := range run {
				run[i] = uint32(rng.Intn(1 << 32))
				flat = append(flat, ms(run[i]))
			}
			slices.Sort(run)
			runs = append(runs, run)
		}
		sort.Float64s(flat)
		ps := []float64{0, 0.1, 0.5, 0.95, 1}[:rng.Intn(6)]
		var want Welford
		for _, x := range flat {
			want.Add(x)
		}
		got, qs := MergeSorted(runs, ms, ps...)
		if got != want {
			t.Fatalf("trial %d: moments %+v, flat %+v", trial, got, want)
		}
		if wantQs := Percentiles(flat, ps...); !slices.EqualFunc(qs, wantQs, sameBits) {
			t.Fatalf("trial %d: quantiles %v = %v, flat %v", trial, ps, qs, wantQs)
		}
	}
}
