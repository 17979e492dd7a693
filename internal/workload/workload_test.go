package workload

import (
	"math"
	"strings"
	"testing"

	"nimbus/internal/sim"

	// Register the baseline and nimbus schemes, so cc= parameters resolve.
	_ "nimbus/internal/cc"
	_ "nimbus/internal/core"
)

func TestParseSpecCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bulk", "bulk"},
		{" bulk ", "bulk"},
		{"bulk()", "bulk"},
		{"bulk(load=24)", "bulk(load=24)"},
		{"bulk(load=24.0)", "bulk(load=24)"},
		{"bulk(cc=bbr, load=24)", "bulk(cc=bbr,load=24)"},
		// A parameter set to its default is the default: one spelling, one
		// scenario key.
		{"bulk(cc=cubic, load=24)", "bulk(load=24)"},
		{"web(load=12)", "web"},
		{"web(load=12.0,max=0)", "web"},
		{"bulk(cc=nimbus(pulse=0.25))", "bulk(cc=nimbus)"},
		{"bulk(cc=copa(delta=0.5),xm=6e3)", "bulk(cc=copa)"},
		{"video(rate=8,load=16)", "video(load=16,rate=8)"},
		{"trace(src=flash-crowd)", "trace(src=flash-crowd)"},
		{"bulk(max=50,alpha=1.1)", "bulk(alpha=1.1,max=50)"},
		{"bulk(cc=nimbus(pulse=0.125))", "bulk(cc=nimbus(pulse=0.125))"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := sp.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must be a fixed point.
		sp2, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", sp.String(), err)
		}
		if sp2.String() != sp.String() {
			t.Errorf("canonical form not a fixed point: %q -> %q", sp.String(), sp2.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"ftp",
		"bulk(load=24",
		"bulk(load)",
		"bulk(load=x)",
		"bulk(load=0)",
		"bulk(load=-3)",
		"bulk(rate=4)",   // rate is video-only
		"web(alpha=1.2)", // alpha is bulk-only
		"trace",          // src required
		"trace(src=)",    // empty src
		"bulk(max=-1)",
		"bulk(xm=0)",
		"bulk(xm=5e7)",   // xm >= cap
		"bulk(cc=warp9)", // unknown scheme
		"video(rate=0)",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", in)
		}
	}
}

func TestSizeDistMeanMatchesSamples(t *testing.T) {
	for _, d := range []SizeDist{
		{XM: 6e3, Cap: 3e7, Alpha: 1.2},
		{XM: 2e3, Cap: 1e6, Alpha: 1.3},
		{XM: 1e4, Cap: 1e7, Alpha: 1}, // alpha==1 special case
	} {
		rng := sim.NewRand(7)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			if float64(x) < d.XM-1 || float64(x) > d.Cap {
				t.Fatalf("sample %d outside [%g, %g]", x, d.XM, d.Cap)
			}
			sum += float64(x)
		}
		mean, want := sum/n, d.MeanBytes()
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("SizeDist%+v: sample mean %.0f vs analytic %.0f", d, mean, want)
		}
	}
}

func TestParseSessionTrace(t *testing.T) {
	tr, err := ParseSessionTrace("t", []byte("time_ms,bytes\n# c\n0,100\n\n5.5,200\n5.5,300\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) != 3 {
		t.Fatalf("got %d arrivals, want 3", len(tr.Arrivals))
	}
	if tr.Arrivals[1].At != sim.FromSeconds(0.0055) || tr.Arrivals[1].Bytes != 200 {
		t.Errorf("arrival 1 = %+v", tr.Arrivals[1])
	}

	for _, bad := range []string{
		"",
		"hello",
		"0,100\ntime_ms,bytes", // header after data
		"0,0",                  // zero bytes
		"0,-5",
		"-1,100",
		"nan,100",
		"1e13,100",     // beyond time bound
		"5,100\n4,100", // decreasing
	} {
		if _, err := ParseSessionTrace("t", []byte(bad)); err == nil {
			t.Errorf("ParseSessionTrace(%q): want error, got nil", bad)
		}
	}
}

func TestEmbeddedTraces(t *testing.T) {
	names := TraceNames()
	if len(names) == 0 {
		t.Fatal("no embedded traces")
	}
	for _, n := range names {
		tr, err := LoadSessionTrace(n)
		if err != nil {
			t.Fatalf("embedded trace %s: %v", n, err)
		}
		if len(tr.Arrivals) == 0 {
			t.Fatalf("embedded trace %s: empty", n)
		}
	}
	if _, err := LoadSessionTrace("no-such-trace"); err == nil {
		t.Error("LoadSessionTrace(no-such-trace): want error")
	} else if !strings.Contains(err.Error(), "flash-crowd") {
		t.Errorf("error should list available traces: %v", err)
	}
}

func TestStatsStreaming(t *testing.T) {
	st := NewStats(sim.NewRand(1))
	s := sim.FromSeconds
	st.flowStarted(s(0), true)
	st.flowStarted(s(1), false)
	if !st.ElasticActive() || st.activeNow != 2 {
		t.Fatalf("active=%d elastic=%v", st.activeNow, st.ElasticActive())
	}
	st.flowCompleted(s(2), 1e6, s(2), true)
	if st.ElasticActive() {
		t.Fatal("elastic flow completed but still marked active")
	}
	st.flowCompleted(s(4), 2e6, s(3), false)
	st.flowCapped()
	sm := st.Snapshot(s(10))
	if sm.Started != 2 || sm.Completed != 2 || sm.Capped != 1 {
		t.Fatalf("counts: %+v", sm)
	}
	// Active area: 1 flow over [0,1), 2 over [1,2), 1 over [2,4) → 5 flow-s / 10 s.
	if math.Abs(sm.MeanActive-0.5) > 1e-9 || sm.MaxActive != 2 {
		t.Errorf("MeanActive=%g MaxActive=%d", sm.MeanActive, sm.MaxActive)
	}
	// 3e6 bytes over 10 s = 2.4 Mbit/s.
	if math.Abs(sm.AggMbps-2.4) > 1e-9 {
		t.Errorf("AggMbps=%g", sm.AggMbps)
	}
	// Elastic over [0,2) of [0,10).
	if math.Abs(sm.ElasticFrac-0.2) > 1e-9 {
		t.Errorf("ElasticFrac=%g", sm.ElasticFrac)
	}
	if sm.FCTMeanMs != 2500 {
		t.Errorf("FCTMeanMs=%g", sm.FCTMeanMs)
	}
	if sm.Jain <= 0.9 || sm.Jain > 1 {
		t.Errorf("Jain=%g", sm.Jain)
	}
}

func FuzzParseSessionTrace(f *testing.F) {
	f.Add("time_ms,bytes\n0,100\n5,200\n")
	f.Add("# comment\n0,100")
	f.Add("0,100\n0,100\n1e3,5\n")
	f.Add("nan,1")
	f.Add("5,100\n4,100")
	f.Add(",")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ParseSessionTrace("fuzz", []byte(data))
		if err != nil {
			return
		}
		// Parsed traces must uphold the invariants the generator relies on.
		if len(tr.Arrivals) == 0 {
			t.Fatal("nil error but no arrivals")
		}
		last := sim.Time(-1)
		for _, a := range tr.Arrivals {
			if a.At < 0 || a.At < last {
				t.Fatalf("arrival times not non-decreasing: %v after %v", a.At, last)
			}
			if a.Bytes <= 0 {
				t.Fatalf("non-positive bytes %d", a.Bytes)
			}
			last = a.At
		}
	})
}
