package simclock

import (
	"sync"
	"time"
)

// Loop is the one periodic background loop behind every rgpdOS daemon —
// the retention sweeper, the cold-tier repacker, the cross-node propagator
// and the control-plane tick driver — in the single-daemon style: one
// goroutine owns the cadence, everything else talks to it through a
// coalescing kick.
//
// Due rule: a pass is due at next(last) — last being the start instant of
// the previous pass (the Start instant before the first) — or, with a nil
// next hook, at last+Interval. When nothing is due the loop sleeps on the
// Clock until the due instant or one Interval, whichever is sooner; a kick
// (Kick, Sync, SetInterval, Stop) cuts the sleep short so the loop
// re-evaluates at once.
//
// Backoff: right after a pass the loop always sleeps once before it checks
// the due instant again, so a due instant the pass could not clear (a
// delete that keeps failing, an unreachable node) is retried once per
// Interval instead of spinning.
//
// Sync contract: Sync forces a pass and returns only after a pass that
// started at or after the Sync call instant completes, or the loop stops.
// Syncs that arrive during one in-flight pass coalesce into at most one
// further pass. Under a Sim clock this is the deterministic join point:
// advance the clock, Sync, assert.
type Loop struct {
	clock Clock
	pass  func(forced bool)
	next  func(last time.Time) (time.Time, bool)
	// kick is the loop's wakeup: buffered 1, so a pending kick is enough
	// and extra ones drop. It doubles as the cancel channel of every
	// Clock.WaitUntil, so no goroutine is spawned per sleep.
	kick chan struct{}

	mu          sync.Mutex
	cond        *sync.Cond // signalled when lastCovered moves or the loop stops
	interval    time.Duration
	running     bool
	stop, done  chan struct{}
	forced      bool
	last        time.Time // start of the last pass (or the Start instant)
	lastCovered time.Time // latest pass start ever, across restarts
}

// NewLoop builds a stopped loop on clock (nil means Real) that runs pass at
// most every interval (which must be positive) and whenever next reports a
// due instant. pass receives whether a Sync forced it. Call Start to run it.
func NewLoop(clock Clock, interval time.Duration, pass func(forced bool), next func(last time.Time) (time.Time, bool)) *Loop {
	if clock == nil {
		clock = Real{}
	}
	l := &Loop{clock: clock, pass: pass, next: next, interval: interval, kick: make(chan struct{}, 1)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Interval reports the current cadence.
func (l *Loop) Interval() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.interval
}

// SetInterval changes the cadence (d must be positive) and kicks a sleeping
// loop so the new cadence takes effect at once rather than after the old
// interval elapses.
func (l *Loop) SetInterval(d time.Duration) {
	l.mu.Lock()
	l.interval = d
	l.mu.Unlock()
	l.Kick()
}

// Kick nudges the loop to re-evaluate its due instant now; a pending kick
// is enough, extra ones drop. Kicking a stopped loop is harmless.
func (l *Loop) Kick() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Start launches the loop goroutine. Starting a running loop is a no-op; a
// stopped loop can be restarted.
func (l *Loop) Start() {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running {
		return
	}
	l.running = true
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	l.last = now
	go l.run(l.stop, l.done)
}

// Stop halts the loop and waits for it to exit; an in-flight pass
// finishes. Blocked Sync callers are released. It reports whether the loop
// was running: stopping a stopped loop is a no-op.
func (l *Loop) Stop() bool {
	l.mu.Lock()
	if !l.running {
		l.mu.Unlock()
		return false
	}
	l.running = false
	stop, done := l.stop, l.done
	l.mu.Unlock()
	close(stop)
	l.Kick()
	<-done
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
	return true
}

// Running reports whether the loop is active.
func (l *Loop) Running() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running
}

// Sync forces a pass covering the instant of the call and blocks until it
// completes (or the loop stops). A stopped loop returns at once.
func (l *Loop) Sync() {
	target := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.running {
		return
	}
	l.forced = true
	l.Kick()
	for l.running && l.lastCovered.Before(target) {
		l.cond.Wait()
	}
}

// run is the loop body.
func (l *Loop) run(stop, done chan struct{}) {
	defer close(done)
	ranPass := false
	for {
		select {
		case <-stop:
			return
		default:
		}
		now := l.clock.Now()
		l.mu.Lock()
		forced, interval, last := l.forced, l.interval, l.last
		l.forced = false
		l.mu.Unlock()
		due, ok := last.Add(interval), true
		if l.next != nil {
			due, ok = l.next(last)
		}
		if forced || (!ranPass && ok && !now.Before(due)) {
			l.runPass(forced)
			ranPass = true
			continue
		}
		target := now.Add(interval)
		if ok && due.After(now) && due.Before(target) {
			target = due
		}
		l.clock.WaitUntil(target, l.kick)
		ranPass = false
	}
}

// runPass runs one pass and publishes its start instant to Sync callers.
func (l *Loop) runPass(forced bool) {
	start := l.clock.Now()
	l.pass(forced)
	l.mu.Lock()
	l.last = start
	if start.After(l.lastCovered) {
		l.lastCovered = start
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}
