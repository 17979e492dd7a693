package transport

import (
	"testing"

	"nimbus/internal/sim"
)

// TestRTTClock drives one clock through a script of samples, once-per-RTT
// gates and losses; every expected value is computed by hand.
func TestRTTClock(t *testing.T) {
	const ms = sim.Millisecond
	srtt3 := 80*ms + 625*sim.Microsecond // 75 ms + (120-75)/8 ms
	type step struct {
		name string
		op   byte     // 's' sample, 'e' Every, 'd' dup-ACK loss, 't' timeout
		v    sim.Time // the sample, or now
		want bool     // what Every or Congestion returns

		srtt, min, rtt sim.Time // the clock after the step
	}
	steps := []step{
		{name: "stand-in before any sample", op: 'e', v: 100*ms - 1, want: false, rtt: 100 * ms},
		{name: "gate passes one stand-in after zero", op: 'e', v: 100 * ms, want: true, rtt: 100 * ms},
		{name: "first sample is the average", op: 's', v: 80 * ms, srtt: 80 * ms, min: 80 * ms, rtt: 80 * ms},
		{name: "gain 1/8 down", op: 's', v: 40 * ms, srtt: 75 * ms, min: 40 * ms, rtt: 75 * ms},
		{name: "gain 1/8 up", op: 's', v: 120 * ms, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "step under 8 ns truncates", op: 's', v: srtt3 + 7, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "gate shut 1 ns early", op: 'e', v: 100*ms + srtt3 - 1, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "gate open one srtt after last pass", op: 'e', v: 100*ms + srtt3, want: true, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "gate shut again", op: 'e', v: 100*ms + srtt3 + 1, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "first loss is an event", op: 'd', v: sim.Second, want: true, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "loss 1 ns inside srtt is not", op: 'd', v: sim.Second + srtt3 - 1, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "timeout is always an event", op: 't', v: sim.Second + 50*ms, want: true, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "timeout re-armed the gate", op: 'd', v: sim.Second + srtt3, srtt: srtt3, min: 40 * ms, rtt: srtt3},
		{name: "loss one srtt after the timeout", op: 'd', v: sim.Second + 50*ms + srtt3, want: true, srtt: srtt3, min: 40 * ms, rtt: srtt3},
	}
	var c RTTClock
	var last sim.Time
	for _, s := range steps {
		var got bool
		switch s.op {
		case 's':
			c.See(s.v)
		case 'e':
			got = c.Every(&last, s.v)
		case 'd', 't':
			got = c.Congestion(LossInfo{Now: s.v, Timeout: s.op == 't'})
		}
		if got != s.want {
			t.Fatalf("%s: got %v, want %v", s.name, got, s.want)
		}
		if c.SRTT() != s.srtt || c.Min() != s.min || c.RTT() != s.rtt {
			t.Fatalf("%s: srtt/min/RTT = %v/%v/%v, want %v/%v/%v",
				s.name, c.SRTT(), c.Min(), c.RTT(), s.srtt, s.min, s.rtt)
		}
	}
}
