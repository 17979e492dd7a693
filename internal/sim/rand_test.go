package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestLazyRandMatchesMathRand holds the lazy Rand to the generator it
// wraps: for random seeds and random op sequences, every wrapper method
// returns what an eagerly seeded math/rand source returns for the same
// calls in the same order, whichever method happens to be the first draw.
func TestLazyRandMatchesMathRand(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		lazy := NewRand(seed)
		ref := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			var got, want interface{}
			switch op % 4 {
			case 0:
				got, want = lazy.Float64(), ref.Float64()
			case 1:
				got, want = lazy.Intn(17), ref.Intn(17)
			case 2:
				got, want = lazy.ExpTime(Millisecond), Time(ref.ExpFloat64()*float64(Millisecond))
			case 3:
				got, want = lazy.Normal(1, 2), ref.NormFloat64()*2+1
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d op %d (kind %d): got %v, want %v", seed, i, op%4, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitCostsParentOneDraw: Split consumes exactly one Int63 from the
// parent whether or not the child is ever drawn from, and a child's
// stream does not depend on when it is first drawn.
func TestSplitCostsParentOneDraw(t *testing.T) {
	f := func(seed int64, label string) bool {
		ref := rand.New(rand.NewSource(seed))
		ref.Int63()
		want := ref.Int63()

		undrawn := NewRand(seed)
		undrawn.Split(label)
		if got := undrawn.src().Int63(); got != want {
			t.Logf("parent after undrawn child: got %d, want %d", got, want)
			return false
		}

		p1, p2 := NewRand(seed), NewRand(seed)
		early := p1.Split(label)
		first := early.src().Int63()
		late := p2.Split(label)
		if p1.src().Int63() != want || p2.src().Int63() != want {
			t.Log("parent after drawn child moved")
			return false
		}
		for i := 0; i < 10; i++ { // more parent draws and splits before the late child's first
			p2.src().Int63()
			p2.Split("other").Float64()
		}
		if got := late.src().Int63(); got != first {
			t.Logf("late child drew %d, immediate child %d", got, first)
			return false
		}
		return early.Float64() == late.Float64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitAllocs pins what the churn workloads rely on: a stream nobody
// draws from costs its 16-byte struct, not a seeded generator.
func TestSplitAllocs(t *testing.T) {
	r := NewRand(1)
	r.src().Int63() // build the parent's generator outside the measurement
	if allocs := testing.AllocsPerRun(1000, func() { r.Split("sess") }); allocs > 1 {
		t.Fatalf("Split of an undrawn stream allocates %.1f/op, want <= 1", allocs)
	}
}

var sinkRand *Rand

func BenchmarkRandSplit(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRand = r.Split("sess")
	}
}

// TestDeriveSeedMatchesMathRand holds the jump-ahead to the generator it
// skips: firstInt63 is the first draw of a math/rand source with that
// seed, and DeriveSeed is the first Int63 of NewRand(base).Split(label),
// on the seeds Seed's normalisation treats specially and on random ones.
// If a Go release ever changed a seeded source's sequence, this is what
// fails.
func TestDeriveSeedMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, m - 1, m + 1, -m, -m - 1, -m + 1, 2 * m, 2*m + 1, 2*m - 1,
		12345 * m, 12345*m + 1, 12345*m - 1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 89482311}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s := int64(rng.Uint64())
		if i%4 == 0 {
			s >>= 33 // small seeds too: the ones users type
		}
		seeds = append(seeds, s)
	}
	labels := []string{"", "cell", "nimbus|96|50|100|poisson|1", "sess"}
	for i, s := range seeds {
		if got, want := firstInt63(s), rand.New(rand.NewSource(s)).Int63(); got != want {
			t.Fatalf("firstInt63(%d) = %d, math/rand draws %d", s, got, want)
		}
		l := labels[i%len(labels)]
		if got, want := DeriveSeed(s, l), NewRand(s).Split(l).src().Int63(); got != want {
			t.Fatalf("DeriveSeed(%d, %q) = %d, NewRand.Split first draw = %d", s, l, got, want)
		}
	}
}

var sinkSeed int64

func BenchmarkDeriveSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSeed = DeriveSeed(int64(i), "nimbus|96|50|100|poisson|1")
	}
}
