package runner

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRunWatchedPassesThrough: a cell finishing inside the timeout comes
// back untouched.
func TestRunWatchedPassesThrough(t *testing.T) {
	sc := Scenario{Name: "fast"}
	r, reaped := RunWatched(context.Background(), sc, time.Second, func(context.Context) Result {
		return Result{Scenario: sc, Events: 7}
	})
	if reaped || r.Events != 7 || r.Err != "" {
		t.Fatalf("RunWatched = %+v reaped=%v, want the run's own result", r, reaped)
	}
	// timeout <= 0 disables the watchdog entirely.
	r, reaped = RunWatched(context.Background(), sc, 0, func(context.Context) Result {
		return Result{Scenario: sc, Events: 9}
	})
	if reaped || r.Events != 9 {
		t.Fatalf("unwatched run = %+v reaped=%v", r, reaped)
	}
}

// TestRunWatchedReapsHungCell: a run that blocks past the timeout is
// reaped into a watchdog error row, and the goroutine exits because the
// watchdog cancels the context it handed the run.
func TestRunWatchedReapsHungCell(t *testing.T) {
	sc := Scenario{Name: "hung"}
	exited := make(chan struct{})
	start := time.Now()
	r, reaped := RunWatched(context.Background(), sc, 50*time.Millisecond, func(ctx context.Context) Result {
		defer close(exited)
		<-ctx.Done()
		return Result{Scenario: sc, Err: ctx.Err().Error()}
	})
	if !reaped {
		t.Fatalf("hung cell not reaped: %+v", r)
	}
	if !strings.Contains(r.Err, "watchdog") {
		t.Fatalf("reaped row error %q does not name the watchdog", r.Err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("reap took %v, want ~the 50ms timeout", elapsed)
	}
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("watched goroutine did not exit after the watchdog canceled its context")
	}
}

// TestRunWatchedGuardsPanics: a panic inside the watched goroutine
// becomes an error row, never a process crash.
func TestRunWatchedGuardsPanics(t *testing.T) {
	sc := Scenario{Name: "bad"}
	r, reaped := RunWatched(context.Background(), sc, time.Second, func(context.Context) Result {
		panic("scenario exploded")
	})
	if reaped || !strings.Contains(r.Err, "scenario exploded") {
		t.Fatalf("panicking run = %+v reaped=%v, want its panic as an error row", r, reaped)
	}
}
