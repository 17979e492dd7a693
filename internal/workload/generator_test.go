package workload

import (
	"math"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

func TestHeavyTailedSizes(t *testing.T) {
	rng := sim.NewRand(3)
	var s HeavyTailedSizes
	n := 200000
	var sum float64
	small := 0
	for i := 0; i < n; i++ {
		v := s.Sample(rng)
		if v < 2000 || v > 300e6 {
			t.Fatalf("size %d out of bounds", v)
		}
		if v <= 15000 {
			small++
		}
		sum += float64(v)
	}
	mean := sum / float64(n)
	want := s.MeanBytes()
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("empirical mean %.0f vs analytic %.0f", mean, want)
	}
	// Most flows are mice.
	if frac := float64(small) / float64(n); frac < 0.5 || frac > 0.6 {
		t.Fatalf("small-flow fraction = %.2f, want ~0.55", frac)
	}
}

type flowRecord struct {
	size int
	fct  sim.Time
}

// heavyTailed starts the paper's WAN cross traffic alone on a 96 Mbit/s
// link: a bulk generator with the heavy-tailed sampler, recording every
// completion.
func heavyTailed(t *testing.T, seed int64, loadMbps float64) (*sim.Scheduler, *netem.Link, *Generator, *[]flowRecord) {
	t.Helper()
	sch := sim.NewScheduler()
	link := netem.NewLink(sch, 96e6, netem.NewDropTail(netem.BufferBytesForDelay(96e6, 100*sim.Millisecond)))
	sp := MustParseSpec("bulk")
	sp.Load = loadMbps
	var recs []flowRecord
	g := &Generator{
		Net: netem.NewNetwork(sch, link), Rng: sim.NewRand(seed), Spec: sp,
		RTT: 50 * sim.Millisecond, Sizes: HeavyTailedSizes{},
		OnComplete: func(size int, fct sim.Time) { recs = append(recs, flowRecord{size, fct}) },
	}
	if err := g.Start(0); err != nil {
		t.Fatal(err)
	}
	return sch, link, g, &recs
}

func TestGeneratorHeavyTailedOfferedLoad(t *testing.T) {
	sch, link, g, recs := heavyTailed(t, 1, 48)
	dur := 120 * sim.Second
	sch.RunUntil(dur)
	got := float64(link.DeliveredBytes) * 8 / dur.Seconds() / 1e6
	// Offered 48 on a 96 link: delivered should be near 48 (allowing
	// heavy-tail variance at this horizon).
	if got < 20 || got > 90 {
		t.Fatalf("trace workload delivered %.1f Mbit/s at 48 offered", got)
	}
	if len(*recs) < 50 {
		t.Fatalf("only %d flows completed", len(*recs))
	}
	if sm := g.Stats.Snapshot(dur); sm.Completed != len(*recs) {
		t.Fatalf("OnComplete saw %d flows, Stats %d", len(*recs), sm.Completed)
	}
	// Some flows must be classed elastic at some point; spot-check the
	// ground-truth helpers don't panic and fractions are sane.
	if f := g.ElasticByteFraction(); f < 0 || f > 1 {
		t.Fatalf("elastic fraction = %v", f)
	}
}

func TestGeneratorHeavyTailedFCTOrdering(t *testing.T) {
	sch, _, _, recs := heavyTailed(t, 2, 30)
	sch.RunUntil(90 * sim.Second)
	if len(*recs) < 30 {
		t.Fatalf("too few completions: %d", len(*recs))
	}
	// Larger flows should take longer on average: compare mean FCT of
	// mice vs elephants.
	var miceSum, miceN, elSum, elN float64
	for _, r := range *recs {
		if r.size <= 15000 {
			miceSum += r.fct.Seconds()
			miceN++
		} else if r.size > 1.5e6 {
			elSum += r.fct.Seconds()
			elN++
		}
	}
	if miceN == 0 || elN == 0 {
		t.Skip("sample too small for both classes")
	}
	if elSum/elN <= miceSum/miceN {
		t.Fatalf("elephant FCT %.2fs <= mouse FCT %.2fs", elSum/elN, miceSum/miceN)
	}
}

// TestGeneratorTeardown: a finished session flow is retired by one
// Sender.Stop, so the topology's flow table holds the active flows and
// nothing else.
func TestGeneratorTeardown(t *testing.T) {
	sch, _, g, recs := heavyTailed(t, 1, 48)
	sch.RunUntil(30 * sim.Second)
	if len(*recs) < 20 {
		t.Fatalf("only %d session flows completed", len(*recs))
	}
	if got, want := g.Net.Flows(), g.ActiveFlows(); got != want {
		t.Fatalf("%d flows attached to the topology, %d active: completed flows were not detached", got, want)
	}
}
