package crosstraffic

import (
	"math"
	"testing"

	"nimbus/internal/netem"
	"nimbus/internal/sim"
)

// newFluidNet is newNet with the bottleneck's fluid term enabled, as
// exp.NewRig does for fluid scenarios.
func newFluidNet(rateMbps float64) (*sim.Scheduler, *netem.Topology, *netem.Link) {
	sch, net, link := newNet(rateMbps)
	link.EnableFluid(netem.BufferBytesForDelay(rateMbps*1e6, 100*sim.Millisecond))
	return sch, net, link
}

func TestParseFluidSpec(t *testing.T) {
	cases := []struct {
		in        string
		want      FluidSpec
		canonical string
	}{
		{"", FluidSpec{}, ""},
		{"off", FluidSpec{}, ""},
		{"none", FluidSpec{}, ""},
		{"  OFF  ", FluidSpec{}, ""},
		{"on", FluidSpec{Enabled: true, DT: DefaultFluidDT}, "on"},
		{"dt=10ms", FluidSpec{Enabled: true, DT: DefaultFluidDT}, "on"},
		{"dt=5ms", FluidSpec{Enabled: true, DT: 5 * sim.Millisecond}, "dt=5ms"},
		{"on,dt=2ms", FluidSpec{Enabled: true, DT: 2 * sim.Millisecond}, "dt=2ms"},
		{"dt=0.5ms", FluidSpec{Enabled: true, DT: 500 * sim.Microsecond}, "dt=0.5ms"},
	}
	for _, c := range cases {
		got, err := ParseFluidSpec(c.in)
		if err != nil {
			t.Fatalf("ParseFluidSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseFluidSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if s := got.String(); s != c.canonical {
			t.Fatalf("ParseFluidSpec(%q).String() = %q, want %q", c.in, s, c.canonical)
		}
		// The canonical form must round-trip to the same spec.
		back, err := ParseFluidSpec(got.String())
		if err != nil || back != got {
			t.Fatalf("canonical %q does not round-trip: %+v, %v", got.String(), back, err)
		}
	}
	for _, bad := range []string{"dt=", "dt=0ms", "dt=-3ms", "dt=2s", "dt=1001ms", "burst=4", "on,off", "dt=xms"} {
		if _, err := ParseFluidSpec(bad); err == nil {
			t.Fatalf("ParseFluidSpec(%q) accepted a bad spec", bad)
		}
	}
}

func TestHasFluidModel(t *testing.T) {
	for _, kind := range []string{"cbr", "poisson", "cubic", "reno"} {
		if !HasFluidModel(kind) {
			t.Fatalf("HasFluidModel(%q) = false", kind)
		}
	}
	for _, kind := range []string{"", "none", "trace", "video1080p", "video4k"} {
		if HasFluidModel(kind) {
			t.Fatalf("HasFluidModel(%q) = true; kind must stay per-packet", kind)
		}
	}
}

// TestFluidCBRRate is TestCBRRate's fluid counterpart: a 24 Mbit/s CBR
// aggregate on a 96 link delivers its rate — with exactly one rate
// transition for the whole run instead of one event per packet.
func TestFluidCBRRate(t *testing.T) {
	sch, net, link := newFluidNet(96)
	f, err := NewFluid(net, "", "cbr", 24e6, 40*sim.Millisecond, FluidSpec{Enabled: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Start(0)
	sch.RunUntil(10 * sim.Second)
	delivered, _ := link.FluidStats()
	got := delivered * 8 / 10 / 1e6
	if math.Abs(got-24) > 0.5 {
		t.Fatalf("fluid CBR delivered %.2f Mbit/s, want ~24", got)
	}
	if f.RateChanges != 1 {
		t.Fatalf("CBR made %d rate changes, want exactly 1", f.RateChanges)
	}
}

// TestFluidPoissonMeanRate checks the resampled process preserves the
// mean and actually varies: over 20 s the delivered rate lands on the
// offered mean while the per-interval rate is not constant.
func TestFluidPoissonMeanRate(t *testing.T) {
	sch, net, link := newFluidNet(96)
	f, err := NewFluid(net, "", "poisson", 48e6, 40*sim.Millisecond,
		FluidSpec{Enabled: true, DT: DefaultFluidDT}, sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(0)
	sch.RunUntil(20 * sim.Second)
	delivered, _ := link.FluidStats()
	got := delivered * 8 / 20 / 1e6
	if math.Abs(got-48) > 2 {
		t.Fatalf("fluid Poisson delivered %.2f Mbit/s, want ~48", got)
	}
	// ~2000 resample ticks; nearly all should change the applied rate.
	if f.RateChanges < 1000 {
		t.Fatalf("Poisson made only %d rate changes over 2000 intervals", f.RateChanges)
	}
}

// TestFluidElasticSawtooth runs the AIMD aggregate alone on the link:
// it must grow past its start rate, self-congest into fluid drops, and
// cut back — the sawtooth an elastic source shows the detector — while
// staying capacity-bound on average.
func TestFluidElasticSawtooth(t *testing.T) {
	for _, kind := range []string{"cubic", "reno"} {
		t.Run(kind, func(t *testing.T) {
			sch, net, link := newFluidNet(48)
			f, err := NewFluid(net, "", kind, 0, 50*sim.Millisecond,
				FluidSpec{Enabled: true}, sim.NewRand(7))
			if err != nil {
				t.Fatal(err)
			}
			f.Start(0)
			var peak, trough float64
			probe := func() {}
			probe = func() {
				r := f.rate
				if r > peak {
					peak = r
				}
				if peak > 0 && r < peak*0.8 && (trough == 0 || r < trough) {
					trough = r
				}
				sch.AfterFunc(100*sim.Millisecond, probe)
			}
			sch.AfterFunc(100*sim.Millisecond, probe)
			sch.RunUntil(60 * sim.Second)
			_, dropped := link.FluidStats()
			if dropped <= 0 {
				t.Fatal("elastic aggregate never self-congested (no fluid drops)")
			}
			if peak < 40e6 {
				t.Fatalf("peak rate %.1f Mbit/s never approached the 48 Mbit/s link", peak/1e6)
			}
			if trough == 0 {
				t.Fatal("rate never backed off after its peak: no sawtooth")
			}
			delivered, _ := link.FluidStats()
			got := delivered * 8 / 60 / 1e6
			if got < 30 || got > 49 {
				t.Fatalf("elastic aggregate delivered %.1f Mbit/s on a 48 link", got)
			}
		})
	}
}

// TestFluidStop pins withdrawal: after Stop the applied rate is zero
// and no further fluid arrives.
func TestFluidStop(t *testing.T) {
	sch, net, link := newFluidNet(96)
	f, err := NewFluid(net, "", "cbr", 24e6, 40*sim.Millisecond, FluidSpec{Enabled: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Start(0)
	sch.RunUntil(5 * sim.Second)
	f.Stop()
	at5, _ := link.FluidStats()
	sch.RunUntil(10 * sim.Second)
	at10, _ := link.FluidStats()
	if at10 != at5 {
		t.Fatalf("fluid kept arriving after Stop: %.0f -> %.0f", at5, at10)
	}
	if link.FluidRate() != 0 {
		t.Fatalf("link fluid rate = %v after Stop, want 0", link.FluidRate())
	}
}

// TestFluidEventFootprint is the optimization's core claim at the
// source level: the fluid Poisson aggregate's whole scheduler footprint
// (one event per resample) is >=5x smaller than the packet source's
// (one per packet plus delivery), at the same offered rate.
func TestFluidEventFootprint(t *testing.T) {
	dur := 10 * sim.Second
	schP, netP, _ := newNet(96)
	NewPoisson(netP, 40*sim.Millisecond, 48e6, sim.NewRand(5)).Start(0)
	schP.RunUntil(dur)
	packetEvents := schP.Executed

	schF, netF, _ := newFluidNet(96)
	f, err := NewFluid(netF, "", "poisson", 48e6, 40*sim.Millisecond,
		FluidSpec{Enabled: true}, sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(0)
	schF.RunUntil(dur)
	fluidEvents := schF.Executed

	if fluidEvents*5 > packetEvents {
		t.Fatalf("fluid path executed %d events vs %d per-packet: want >=5x reduction",
			fluidEvents, packetEvents)
	}
}

func TestNewFluidRejectsBadInputs(t *testing.T) {
	_, net, _ := newFluidNet(96)
	if _, err := NewFluid(net, "", "trace", 24e6, 40*sim.Millisecond, FluidSpec{Enabled: true}, nil); err == nil {
		t.Fatal("NewFluid accepted a kind with no fluid model")
	}
	if _, err := NewFluid(net, "no-such-route", "cbr", 24e6, 40*sim.Millisecond, FluidSpec{Enabled: true}, nil); err == nil {
		t.Fatal("NewFluid accepted an unknown route")
	}
}

// FuzzParseFluidSpec fuzzes the spec grammar: no input may panic, any
// accepted input must produce a canonical form that re-parses to the
// same spec, and the canonical form must be idempotent.
func FuzzParseFluidSpec(f *testing.F) {
	for _, seed := range []string{
		"", "off", "none", "on", "dt=10ms", "dt=5ms", "on,dt=2ms",
		"dt=0.5ms", "dt=", "dt=0ms", "dt=2s", "burst=4", "ON , dt=3MS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFluidSpec(s)
		if err != nil {
			return
		}
		if spec.Enabled && (spec.DT <= 0 || spec.DT > maxFluidDT) {
			t.Fatalf("ParseFluidSpec(%q) accepted out-of-range DT %v", s, spec.DT)
		}
		canon := spec.String()
		back, err := ParseFluidSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if back != spec {
			t.Fatalf("ParseFluidSpec(%q) = %+v, but its canonical %q re-parses to %+v", s, spec, canon, back)
		}
		if back.String() != canon {
			t.Fatalf("canonical form not idempotent: %q -> %q", canon, back.String())
		}
	})
}
