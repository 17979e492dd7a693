package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDisabledFastPath: with no table armed, firing is a no-op.
func TestDisabledFastPath(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("Enabled() after Reset")
	}
	if err := Fire(context.Background(), "anything"); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
	if torn, err := FireWrite("anything"); torn || err != nil {
		t.Fatalf("disabled FireWrite returned torn=%v err=%v", torn, err)
	}
}

// TestSpecParsing: good specs arm the named points, bad specs error.
func TestSpecParsing(t *testing.T) {
	t.Cleanup(Reset)
	good := []string{
		"",
		"a=err",
		"a=err:0.5,b=hang:1",
		"a=sleep:250ms, b=torn",
		"a=sleep:250",
	}
	for _, spec := range good {
		if err := Set(spec); err != nil {
			t.Errorf("Set(%q) = %v, want nil", spec, err)
		}
	}
	bad := []string{
		"a",            // no mode
		"=err",         // no name
		"a=explode",    // unknown mode
		"a=err:2",      // probability out of range
		"a=err:x",      // unparseable probability
		"a=sleep:-1ms", // negative delay
	}
	for _, spec := range bad {
		if err := Set(spec); err == nil {
			t.Errorf("Set(%q) succeeded, want error", spec)
		}
	}
}

// TestErrMode: an armed err point fails every time with ErrInjected, and
// only the named point.
func TestErrMode(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("boom=err"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := Fire(context.Background(), "boom"); !errors.Is(err, ErrInjected) {
			t.Fatalf("Fire(boom) = %v, want ErrInjected", err)
		}
	}
	if err := Fire(context.Background(), "other"); err != nil {
		t.Fatalf("Fire(other) = %v, want nil", err)
	}
}

// TestHangReleasedByContext: a hang blocks until its context is
// canceled, then returns the context's error — the watchdog's release
// path, which is what keeps chaos tests goroutine-leak-free.
func TestHangReleasedByContext(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("stuck=hang"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Fire(ctx, "stuck") }()
	select {
	case err := <-done:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("released hang returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hang did not release on context cancel")
	}
}

// TestHangReleasedByReset: Reset un-wedges hangers with ErrInjected.
func TestHangReleasedByReset(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("stuck=hang"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Fire(context.Background(), "stuck")
		}()
	}
	time.Sleep(20 * time.Millisecond)
	Reset()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hanger %d returned %v, want ErrInjected", i, err)
		}
	}
}

// TestSleepMode: sleep stalls at least the configured delay and then
// proceeds without error.
func TestSleepMode(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("slow=sleep:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Fire(context.Background(), "slow"); err != nil {
		t.Fatalf("sleep Fire = %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("sleep returned after %v, want >= 30ms", d)
	}
}

// TestTornMode: write sites get the torn instruction plus the error;
// non-write sites degrade torn to a plain injected error.
func TestTornMode(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("w=torn"); err != nil {
		t.Fatal(err)
	}
	torn, err := FireWrite("w")
	if !torn || !errors.Is(err, ErrInjected) {
		t.Fatalf("FireWrite = torn=%v err=%v, want torn ErrInjected", torn, err)
	}
	if err := Fire(context.Background(), "w"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Fire on torn point = %v, want ErrInjected", err)
	}
}

// TestProbability: a p=0.5 point triggers some but not all of many
// rolls (the stream is seeded, so this is deterministic in practice).
func TestProbability(t *testing.T) {
	t.Cleanup(Reset)
	if err := Set("maybe=err:0.5"); err != nil {
		t.Fatal(err)
	}
	hits := 0
	const rolls = 200
	for i := 0; i < rolls; i++ {
		if err := Fire(context.Background(), "maybe"); err != nil {
			hits++
		}
	}
	if hits == 0 || hits == rolls {
		t.Fatalf("p=0.5 point hit %d/%d rolls", hits, rolls)
	}
}
