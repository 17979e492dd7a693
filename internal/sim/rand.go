package sim

import "math/rand"

// Rand is a deterministic random source for simulations. It wraps
// math/rand with the distributions the workload generators need. Each
// component that needs randomness should derive its own Rand via Split so
// that adding a component does not perturb the random streams of others.
//
// A stream's seed is fixed at NewRand/Split; its math/rand state (607
// words, ~12 µs to fill) is built at first draw. Most per-flow streams
// are never drawn from, so Split costs a hash and a 16-byte struct.
type Rand struct {
	seed int64
	r    *rand.Rand // nil until the first draw
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{seed: seed}
}

// src returns the stream's generator, seeding it on first use. It must
// stay inlinable (go build -gcflags=-m ./internal/sim): Poisson sources
// and PIE draw once per packet.
func (r *Rand) src() *rand.Rand {
	if r.r == nil {
		r.build()
	}
	return r.r
}

// build is src's cold half, kept out of line so src fits the inliner's
// budget.
func (r *Rand) build() { r.r = rand.New(rand.NewSource(r.seed)) }

// Split derives an independent Rand from this one, keyed by label so the
// derivation is stable across code changes that reorder calls.
func (r *Rand) Split(label string) *Rand {
	return NewRand(splitSeed(label, r.src().Int63()))
}

// splitSeed is the seed of the stream Split(label) derives from a parent
// whose next draw is draw: FNV-1a of the label, XOR the draw.
func splitSeed(label string, draw int64) int64 {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return int64(h ^ uint64(draw))
}

// DeriveSeed maps (base seed, label) to an independent per-run seed. It is
// defined as the first Int63 drawn from NewRand(base).Split(label) and
// computed by jump-ahead (firstInt63), so it depends only on its inputs —
// never on how many other seeds were derived first — and costs no
// generator. The sweep engine uses it to give every scenario in a grid its
// own isolated random stream regardless of worker scheduling order; a
// run's seed is part of its cached result's name, so these values must
// never move.
func DeriveSeed(base int64, label string) int64 {
	return firstInt63(splitSeed(label, firstInt63(base)))
}

// firstInt63 returns rand.New(rand.NewSource(seed)).Int63() without
// filling the source's 607 words to read two of them. math/rand seeds
// word i from three consecutive values of x -> 48271·x mod (2^31-1),
// started at the normalised seed and run 20 + 3i steps in, XOR a table
// constant; the first draw is word 333 + word 606. The recurrence is a
// multiplication, so step k is 48271^k · x0: six precomputed powers
// replace 1841 steps. A seeded source's sequence is frozen by the Go 1
// compatibility promise (TestDeriveSeedMatchesMathRand is the alarm).
func firstInt63(seed int64) int64 {
	const m = 1<<31 - 1
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	// word is one seeded word: a, b, c are 48271^k mod m for its three
	// steps k, cooked its rngCooked entry ($GOROOT/src/math/rand/rng.go).
	word := func(a, b, c uint64, cooked int64) int64 {
		return int64(a*x0%m)<<40 ^ int64(b*x0%m)<<20 ^ int64(c*x0%m) ^ cooked
	}
	w333 := word(2082024995, 1341337692, 1079773482, -4633371852008891965) // k = 1020..1022
	w606 := word(933195560, 665897288, 2140244399, 4152330101494654406)    // k = 1839..1841
	return int64(uint64(w333+w606) & (1<<63 - 1))
}

// Float64 returns a uniform sample in [0,1).
func (r *Rand) Float64() float64 { return r.src().Float64() }

// Intn returns a uniform sample in [0,n).
func (r *Rand) Intn(n int) int { return r.src().Intn(n) }

// ExpTime returns an exponential Time delta with the given mean.
func (r *Rand) ExpTime(mean Time) Time {
	return Time(r.src().ExpFloat64() * float64(mean))
}

// Normal returns a normal sample with the given mean and stddev.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return r.src().NormFloat64()*stddev + mean
}
