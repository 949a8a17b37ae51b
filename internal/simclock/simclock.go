// Package simclock provides the time source used by every rgpdOS component.
//
// The paper's enforcement mechanisms (TTL expiry for the right to be
// forgotten, membrane timestamps, audit ordering) all depend on time. To keep
// the simulation deterministic, core packages never call time.Now directly;
// they accept a Clock. Production-style callers pass Real; tests and the
// benchmark harness pass a manual-advance Sim clock so that expiry sweeps and
// log ordering are reproducible run to run.
package simclock

import (
	"sync"
	"time"
)

// Clock is the time source consumed by rgpdOS components. Its instants can
// be awaited — what the background loops (see Loop) block on between
// passes. Real waits in wall time; Sim waits are released by Advance/Set,
// so a test that moves the clock deterministically wakes every sleeper
// whose deadline passed.
type Clock interface {
	// Now reports the current instant according to this clock.
	Now() time.Time
	// WaitUntil blocks until the clock reaches t or cancel delivers (or
	// is closed), whichever happens first. It reports whether t was
	// reached. A t at or before Now returns true immediately.
	WaitUntil(t time.Time, cancel <-chan struct{}) bool
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock using time.Now.
func (Real) Now() time.Time { return time.Now() }

// WaitUntil implements Clock with a timer.
func (Real) WaitUntil(t time.Time, cancel <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-cancel:
		return false
	}
}

// Epoch is the default starting instant for simulated clocks. A fixed epoch
// keeps membrane timestamps and audit entries stable across runs.
var Epoch = time.Date(2023, time.January, 1, 0, 0, 0, 0, time.UTC)

// Sim is a manually advanced Clock. The zero value is ready to use and
// starts at Epoch.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters map[*simWaiter]struct{}
}

// simWaiter is one blocked WaitUntil call; ch closes when the simulated
// clock reaches the deadline.
type simWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

var _ Clock = (*Sim)(nil)

// NewSim returns a Sim clock starting at the given instant. A zero start
// means Epoch.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = Epoch
	}
	return &Sim{now: start}
}

// Now reports the simulated instant.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.now.IsZero() {
		s.now = Epoch
	}
	return s.now
}

// Advance moves the simulated clock forward by d and returns the new
// instant, waking every WaitUntil whose deadline passed. Negative
// durations are ignored: simulated time never rewinds, mirroring the
// monotonic clock the kernel would expose.
func (s *Sim) Advance(d time.Duration) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.now.IsZero() {
		s.now = Epoch
	}
	if d > 0 {
		s.now = s.now.Add(d)
		s.wakeLocked()
	}
	return s.now
}

// Set jumps the simulated clock to t if t is later than the current
// instant, waking every WaitUntil whose deadline passed; earlier instants
// are ignored so time stays monotonic.
func (s *Sim) Set(t time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.now.IsZero() {
		s.now = Epoch
	}
	if t.After(s.now) {
		s.now = t
		s.wakeLocked()
	}
	return s.now
}

// wakeLocked releases every waiter whose deadline has been reached; caller
// holds s.mu.
func (s *Sim) wakeLocked() {
	for w := range s.waiters {
		if !w.deadline.After(s.now) {
			close(w.ch)
			delete(s.waiters, w)
		}
	}
}

// WaitUntil implements Clock: it blocks until Advance/Set moves the
// simulated clock to t or beyond, or cancel delivers. Simulated time only
// moves when a test (or harness) moves it, so a WaitUntil with no
// concurrent Advance and a quiet cancel channel blocks forever — exactly
// the determinism loop tests rely on.
func (s *Sim) WaitUntil(t time.Time, cancel <-chan struct{}) bool {
	s.mu.Lock()
	if s.now.IsZero() {
		s.now = Epoch
	}
	if !t.After(s.now) {
		s.mu.Unlock()
		return true
	}
	w := &simWaiter{deadline: t, ch: make(chan struct{})}
	if s.waiters == nil {
		s.waiters = make(map[*simWaiter]struct{})
	}
	s.waiters[w] = struct{}{}
	s.mu.Unlock()
	select {
	case <-w.ch:
		return true
	case <-cancel:
		s.mu.Lock()
		delete(s.waiters, w)
		s.mu.Unlock()
		return false
	}
}
