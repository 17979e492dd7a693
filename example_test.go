package nimbus_test

import (
	"fmt"
	"time"

	"nimbus"
)

// The README's "Library use" block, verbatim. It has no Output line, so go
// test compiles it against the facade without running fig08.
func Example_libraryUse() {
	det := nimbus.NewDetector(nimbus.DefaultDetectorConfig())
	ctrl := nimbus.New(nimbus.Config{Mu: nimbus.Oracle{Rate: 96e6}, Competitive: nimbus.NewCubic()})
	s := nimbus.MustScheme("nimbus(pulse=0.1,mu=est)", 96e6)
	report, _ := nimbus.RunExperiment("fig08", 1, true)
	_, _, _, _ = det, ctrl, s, report
}

// MustScheme's doc example on a 96 Mbit/s rig.
func ExampleMustScheme() {
	rig := nimbus.NewRig(nimbus.NetConfig{RateMbps: 96, RTT: nimbus.Time(50 * time.Millisecond), Seed: 1})
	s := nimbus.MustScheme("nimbus(pulse=0.1,mu=est)", 96e6)
	rig.AddFlow(s, nimbus.Time(50*time.Millisecond), 0)
	fmt.Println(s.Name)
	// Output: nimbus
}
