// Package fault is a minimal failpoint framework for chaos testing the
// experiment service. Call sites name a point ("disk-write", "cell-run")
// and fire it on their hot path; the whole table is off by default and
// the disabled fast path is a single atomic load, so production traffic
// pays one branch per instrumented operation and nothing else.
//
// Points are armed from a spec string, the daemon's -failpoints flag:
//
//	disk-write=err:0.5,cell-run=hang:1
//	journal-append=torn
//	cell-run=sleep:400ms
//
// Each item is name=mode[:arg]. Modes:
//
//   - err[:p]   — the operation fails with ErrInjected (probability p,
//     default 1).
//   - hang[:p]  — the operation blocks until its context is done or the
//     table changes (Set/Reset), then fails. This is how chaos tests
//     freeze a cell under the watchdog without leaking goroutines: the
//     watchdog cancels the cell context and the hang returns.
//   - sleep[:d] — the operation stalls for d (a Go duration, or a bare
//     number of milliseconds; default 100ms) and then proceeds normally.
//     Used to stretch job wall-clock so kill -9 lands mid-job reliably.
//   - torn[:p]  — a write-shaped operation persists a prefix of its
//     payload and then fails, simulating a crash mid-write. Only
//     meaningful for call sites using FireWrite; Fire treats it as err.
//
// The probability stream is seeded deterministically so a chaos run with
// fractional probabilities is reproducible within one process.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the action an armed failpoint injects.
type Mode uint8

const (
	// Off: the point is not armed (or the probability roll passed).
	Off Mode = iota
	// Err: fail the operation with ErrInjected.
	Err
	// Hang: block until the context is done or the table changes.
	Hang
	// Sleep: stall for the configured delay, then proceed.
	Sleep
	// Torn: persist a prefix of the payload, then fail (write sites).
	Torn
)

// ErrInjected is the error every injected failure resolves to, so call
// sites and tests can identify synthetic faults with errors.Is.
var ErrInjected = errors.New("injected fault")

type point struct {
	mode  Mode
	prob  float64
	delay time.Duration
}

var (
	// armed is the disabled fast path: one atomic load when no failpoint
	// is configured.
	armed atomic.Bool

	mu      sync.Mutex
	points  map[string]*point
	release = make(chan struct{})
	rng     = rand.New(rand.NewSource(1))
)

// Set replaces the active failpoint table from a spec string (see the
// package comment for the grammar). An empty spec disarms everything.
// Any table change releases goroutines blocked in a hang — they return
// ErrInjected, so a test can un-wedge what it froze.
func Set(spec string) error {
	table := map[string]*point{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok || name == "" {
			return fmt.Errorf("fault: %q is not name=mode[:arg]", item)
		}
		modeStr, arg, hasArg := strings.Cut(val, ":")
		p := &point{prob: 1}
		switch modeStr {
		case "err":
			p.mode = Err
		case "hang":
			p.mode = Hang
		case "sleep":
			p.mode = Sleep
			p.delay = 100 * time.Millisecond
		case "torn":
			p.mode = Torn
		default:
			return fmt.Errorf("fault: %q: unknown mode %q (want err, hang, sleep, or torn)", item, modeStr)
		}
		if hasArg {
			if p.mode == Sleep {
				d, err := parseDelay(arg)
				if err != nil {
					return fmt.Errorf("fault: %q: %v", item, err)
				}
				p.delay = d
			} else {
				f, err := strconv.ParseFloat(arg, 64)
				if err != nil || f <= 0 || f > 1 {
					return fmt.Errorf("fault: %q: probability must be in (0,1], got %q", item, arg)
				}
				p.prob = f
			}
		}
		table[name] = p
	}
	mu.Lock()
	points = table
	close(release) // wake hangers; they observe the table change and fail
	release = make(chan struct{})
	armed.Store(len(table) > 0)
	mu.Unlock()
	return nil
}

// parseDelay accepts a Go duration ("250ms", "2s") or a bare number of
// milliseconds ("250").
func parseDelay(s string) (time.Duration, error) {
	if ms, err := strconv.Atoi(s); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("negative delay %q", s)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad delay %q (want a duration or milliseconds)", s)
	}
	return d, nil
}

// Reset disarms every failpoint and releases anything blocked in a hang.
func Reset() { Set("") } //nolint:errcheck // the empty spec cannot fail

// Enabled reports whether any failpoint is armed.
func Enabled() bool { return armed.Load() }

// eval rolls the named point once and returns the injected mode plus the
// release channel current at roll time.
func eval(name string) (Mode, time.Duration, chan struct{}) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		return Off, 0, release
	}
	if p.prob < 1 && rng.Float64() >= p.prob {
		return Off, 0, release
	}
	return p.mode, p.delay, release
}

// Fire evaluates the named failpoint on a non-write path. Err (and Torn,
// which only write sites can honor properly) returns ErrInjected; Hang
// blocks until ctx is done (returning ctx.Err()) or the table changes
// (returning ErrInjected); Sleep stalls, honoring ctx, then proceeds.
// Unarmed or probability-passed points return nil.
func Fire(ctx context.Context, name string) error {
	if !armed.Load() {
		return nil
	}
	mode, delay, rel := eval(name)
	switch mode {
	case Err, Torn:
		return fmt.Errorf("%s: %w", name, ErrInjected)
	case Sleep:
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	case Hang:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-rel:
			return fmt.Errorf("%s: %w", name, ErrInjected)
		}
	}
	return nil
}

// FireWrite evaluates the named failpoint on a write path. torn=true
// instructs the caller to persist a prefix of its payload before failing
// with err — simulating a crash mid-write. Sleep stalls inline; Hang is
// not meaningful on write paths and degrades to Err.
func FireWrite(name string) (torn bool, err error) {
	if !armed.Load() {
		return false, nil
	}
	mode, delay, _ := eval(name)
	switch mode {
	case Err, Hang:
		return false, fmt.Errorf("%s: %w", name, ErrInjected)
	case Torn:
		return true, fmt.Errorf("%s: %w", name, ErrInjected)
	case Sleep:
		time.Sleep(delay)
	}
	return false, nil
}
