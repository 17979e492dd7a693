package runner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nimbus/internal/scheme"
)

// keyExempt lists the Scenario fields deliberately excluded from Key():
// Name is a display label derived from the swept axes, and RunSeed is
// itself derived from the key, so including either would be circular.
var keyExempt = map[string]bool{
	"Name":    true,
	"RunSeed": true,
}

// TestKeyCoversEveryField perturbs each Scenario field by reflection and
// requires Key() to change. It fails the moment someone adds a field to
// Scenario without encoding it in Key() (or consciously exempting it),
// which would silently give distinct scenarios the same random stream.
func TestKeyCoversEveryField(t *testing.T) {
	base := Scenario{}
	baseKey := base.Key()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		probe := base
		fv := reflect.ValueOf(&probe).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(scheme.Spec{}):
			fv.Set(reflect.ValueOf(scheme.MustParse("probe-scheme")))
		case f.Type.Kind() == reflect.String:
			fv.SetString("probe-" + f.Name)
		case f.Type.Kind() == reflect.Float64:
			fv.SetFloat(123.456)
		case f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Int:
			fv.SetInt(987654321)
		case f.Type.Kind() == reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: teach this test how to perturb it", f.Name, f.Type.Kind())
		}
		changed := probe.Key() != baseKey
		if keyExempt[f.Name] {
			if changed {
				t.Errorf("field %s is exempt from Key() but changes it; drop the exemption", f.Name)
			}
			continue
		}
		if !changed {
			t.Errorf("field %s is not encoded in Scenario.Key(): two scenarios differing only in %s would share a random stream", f.Name, f.Name)
		}
	}
}

// TestCacheKeyCoversEveryField perturbs each Scenario field by reflection
// and requires CacheKey() to change. The cache key is what the experiment
// service stores results under, so the bar is stricter than Key()'s:
// every field except the Name display label must reach it — including
// RunSeed, which Key() omits (it is derived from the key) but which
// changes what the simulation actually runs. Adding a Scenario field
// without invalidating cached results is therefore impossible: the field
// must flow into Key() (and hence CacheKey) or be consciously exempted
// here AND in keyExempt.
func TestCacheKeyCoversEveryField(t *testing.T) {
	const version = "codev1"
	base := Scenario{}
	baseKey := base.CacheKey(version)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		probe := base
		fv := reflect.ValueOf(&probe).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(scheme.Spec{}):
			fv.Set(reflect.ValueOf(scheme.MustParse("probe-scheme")))
		case f.Type.Kind() == reflect.String:
			fv.SetString("probe-" + f.Name)
		case f.Type.Kind() == reflect.Float64:
			fv.SetFloat(123.456)
		case f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Int:
			fv.SetInt(987654321)
		case f.Type.Kind() == reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: teach this test how to perturb it", f.Name, f.Type.Kind())
		}
		changed := probe.CacheKey(version) != baseKey
		if f.Name == "Name" {
			if changed {
				t.Errorf("display label %s changes CacheKey(); equivalent scenarios with different labels would re-simulate", f.Name)
			}
			continue
		}
		if !changed {
			t.Errorf("field %s is not encoded in Scenario.CacheKey(): changing %s would serve a stale cached result", f.Name, f.Name)
		}
	}
}

// TestCacheKeyComposition pins the exact Key()/seed/codeVersion layout so
// the on-disk cache address of every existing result is stable: a change
// here invalidates every cache directory in the wild and must be
// deliberate.
func TestCacheKeyComposition(t *testing.T) {
	sc := Scenario{RateMbps: 96, RTTms: 50, BufferMs: 100, DurationSec: 30, Seed: 7}
	want := sc.Key() + "/7/v-abc"
	if got := sc.CacheKey("v-abc"); got != want {
		t.Fatalf("CacheKey = %q, want %q", got, want)
	}
	// RunSeed overrides the user seed in the composition: it is what the
	// simulation actually runs with.
	sc.RunSeed = 42
	want = sc.Key() + "/42/v-abc"
	if got := sc.CacheKey("v-abc"); got != want {
		t.Fatalf("CacheKey with RunSeed = %q, want %q", got, want)
	}
	// A code-version change misses; a seed change misses.
	keys := map[string]bool{
		sc.CacheKey("v-abc"): true,
		sc.CacheKey("v-def"): true,
	}
	sc.RunSeed = 43
	keys[sc.CacheKey("v-abc")] = true
	if len(keys) != 3 {
		t.Fatalf("cache keys collide across code versions / run seeds: %v", keys)
	}
}

// TestKeyDistinguishesNewAxes pins the concrete encodings of the
// time-varying and topology axes (a regression guard beyond the
// reflection sweep).
func TestKeyDistinguishesNewAxes(t *testing.T) {
	a := Scenario{RateMbps: 48, LinkTrace: "cell-ramp"}
	b := Scenario{RateMbps: 48, LinkTrace: "outage"}
	c := Scenario{RateMbps: 48, RatePattern: "step:6:24:2000"}
	d := Scenario{RateMbps: 48, Topology: "parking-lot"}
	e := Scenario{RateMbps: 48, Topology: "access(x4,5ms)->bn"}
	g := Scenario{RateMbps: 48, Churn: "bulk(load=24)"}
	h := Scenario{RateMbps: 48, Churn: "web(load=24)"}
	i := Scenario{RateMbps: 48, FluidCross: "on"}
	j := Scenario{RateMbps: 48, FluidCross: "dt=5ms"}
	keys := map[string]string{}
	for _, sc := range []Scenario{a, b, c, d, e, g, h, i, j, {RateMbps: 48}} {
		k := sc.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision between %q and %q: %s", prev, fmt.Sprintf("%+v", sc), k)
		}
		keys[k] = fmt.Sprintf("%+v", sc)
	}
}

// fmtKey is Key() as it was spelt with fmt.Sprintf: the reference the
// appending encoder must match byte for byte, since a key names a
// derived seed and a cached result.
func fmtKey(s Scenario) string {
	key := fmt.Sprintf("rate=%g/trace=%s/pattern=%s/rtt=%g/buf=%g/aqm=%s/pie=%g/scheme=%s/cross=%s:%g@%g/dur=%g/seed=%d",
		s.RateMbps, s.LinkTrace, s.RatePattern, s.RTTms, s.BufferMs, s.AQM, s.PIETargetMs, s.Scheme,
		s.Cross, s.CrossRateMbps, s.CrossRTTms, s.DurationSec, s.Seed)
	if s.FlowMix != "" {
		key += "/flows=" + s.FlowMix
	}
	if s.Topology != "" {
		key += "/topo=" + s.Topology
	}
	if s.Churn != "" {
		key += "/churn=" + s.Churn
	}
	if s.FluidCross != "" {
		key += "/fluid=" + s.FluidCross
	}
	return key
}

// fmtCacheKey is CacheKey(v) as it was spelt with fmt.Sprintf.
func fmtCacheKey(s Scenario, v string) string {
	return fmt.Sprintf("%s/%d/%s", fmtKey(s), s.EffectiveSeed(), v)
}

// specialFloats are the values whose spelling differs most between
// formatters: signed zero, infinities, NaN, the switch to an exponent,
// the smallest subnormal and the largest finite float.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e21, 1e20, 1e-5, 1e-4, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64 * 3, 0.1, 123.456, 96, -48.5, 1 << 53,
}

// randomScenario fills every keyed field of a scenario from rng: floats
// from specialFloats or random bit patterns and magnitudes, seeds of
// either sign, and each optional string set or empty.
func randomScenario(rng *rand.Rand) Scenario {
	f := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specialFloats[rng.Intn(len(specialFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return float64(rng.Intn(2000)) / 4
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	str := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	sc := Scenario{
		RateMbps: f(), RTTms: f(), BufferMs: f(), PIETargetMs: f(),
		CrossRateMbps: f(), CrossRTTms: f(), DurationSec: f(),
		LinkTrace:   str("", "cell-ramp", "/tmp/a b.trace"),
		RatePattern: str("", "step:6:24:2000"),
		AQM:         str("", "pie", "codel"),
		Scheme:      scheme.MustParse(str("nimbus", "copa(delta=0.1)", "nimbus(pulse=0.25,mu=est)")),
		Cross:       str("", "poisson", "cbr"),
		FlowMix:     str("", "nimbus*2+cubic@10"),
		Topology:    str("", "parking-lot", "access(x4,5ms)->bn"),
		Churn:       str("", "bulk(load=24)"),
		FluidCross:  str("", "on", "dt=5ms"),
		Seed:        rng.Int63() - rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		sc.Scheme = scheme.Spec{}
	}
	if rng.Intn(2) == 0 {
		sc.RunSeed = rng.Int63() - rng.Int63()
	}
	return sc
}

// TestScenarioKeyMatchesFmt holds Key() and CacheKey(v) to their
// fmt.Sprintf spelling over random scenarios and every special float in
// every float field: a one-byte drift would move every derived seed and
// every cache entry.
func TestScenarioKeyMatchesFmt(t *testing.T) {
	check := func(sc Scenario) {
		t.Helper()
		if got, want := sc.Key(), fmtKey(sc); got != want {
			t.Fatalf("Key() = %q\nfmt spelling %q", got, want)
		}
		for _, v := range []string{"", "test-v1"} {
			if got, want := sc.CacheKey(v), fmtCacheKey(sc, v); got != want {
				t.Fatalf("CacheKey(%q) = %q\nfmt spelling %q", v, got, want)
			}
		}
	}
	check(Scenario{})
	for _, x := range specialFloats {
		check(Scenario{RateMbps: x, RTTms: x, BufferMs: x, PIETargetMs: x,
			CrossRateMbps: x, CrossRTTms: x, DurationSec: x, Seed: -1, RunSeed: math.MinInt64})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(randomScenario(rng))
	}
}

// FuzzScenarioKey compares Key() and CacheKey(v) with their fmt.Sprintf
// spelling on arbitrary floats, seeds and strings.
func FuzzScenarioKey(f *testing.F) {
	for i, x := range specialFloats {
		f.Add(x, specialFloats[(i+1)%len(specialFloats)], int64(i)-5, int64(-i), "nimbus", "parking-lot", "test-v1")
	}
	f.Add(1e21, 5e-324, int64(math.MinInt64), int64(math.MaxInt64), "", "", "")
	f.Fuzz(func(t *testing.T, a, b float64, seed, runSeed int64, cross, topo, version string) {
		sc := Scenario{
			RateMbps: a, RTTms: b, BufferMs: a * b, PIETargetMs: -a,
			CrossRateMbps: b / 3, CrossRTTms: a + b, DurationSec: b,
			Cross: cross, Topology: topo, Churn: cross, FlowMix: topo, FluidCross: version,
			AQM: topo, LinkTrace: cross, RatePattern: version,
			Seed: seed, RunSeed: runSeed,
		}
		if got, want := sc.Key(), fmtKey(sc); got != want {
			t.Fatalf("Key() = %q\nfmt spelling %q", got, want)
		}
		if got, want := sc.CacheKey(version), fmtCacheKey(sc, version); got != want {
			t.Fatalf("CacheKey(%q) = %q\nfmt spelling %q", version, got, want)
		}
	})
}
