package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counter is a pass callback that counts passes and records each pass's
// start instant and forced flag.
type counter struct {
	clk    *Sim
	n      atomic.Int64
	mu     sync.Mutex
	starts []time.Time
	forced []bool
	// gate, when non-nil, blocks every pass until the test sends on it.
	gate chan struct{}
	// began receives once per pass, before the gate.
	began chan struct{}
}

func newCounter(clk *Sim) *counter {
	return &counter{clk: clk, began: make(chan struct{}, 64)}
}

func (c *counter) pass(forced bool) {
	c.mu.Lock()
	c.starts = append(c.starts, c.clk.Now())
	c.forced = append(c.forced, forced)
	c.mu.Unlock()
	c.began <- struct{}{}
	if c.gate != nil {
		<-c.gate
	}
	c.n.Add(1)
}

func (c *counter) lastStart() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.starts[len(c.starts)-1]
}

// waitBegan waits for the next pass to start.
func waitBegan(t *testing.T, c *counter) {
	t.Helper()
	select {
	case <-c.began:
	case <-time.After(5 * time.Second):
		t.Fatal("pass did not start")
	}
}

// waitSleeping waits until the loop is blocked in Sim.WaitUntil with the
// given deadline.
func waitSleeping(t *testing.T, s *Sim, deadline time.Time) {
	t.Helper()
	stop := time.Now().Add(5 * time.Second)
	for time.Now().Before(stop) {
		s.mu.Lock()
		for w := range s.waiters {
			if w.deadline.Equal(deadline) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("loop never slept until %v", deadline)
}

// waitForced waits until a Sync has set the forced flag; Sync holds l.mu
// from setting it until cond.Wait releases the lock, so observing it here
// means that Sync is already parked waiting for coverage.
func waitForced(t *testing.T, l *Loop) {
	t.Helper()
	stop := time.Now().Add(5 * time.Second)
	for time.Now().Before(stop) {
		l.mu.Lock()
		f := l.forced
		l.mu.Unlock()
		if f {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("Sync never set the forced flag")
}

// waitStopping waits until Stop has closed the loop's stop channel.
func waitStopping(t *testing.T, l *Loop) {
	t.Helper()
	l.mu.Lock()
	stop := l.stop
	l.mu.Unlock()
	select {
	case <-stop:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never closed the stop channel")
	}
}

func startLoop(t *testing.T, s *Sim, interval time.Duration, c *counter, pass func(bool), next func(time.Time) (time.Time, bool)) *Loop {
	t.Helper()
	if pass == nil {
		pass = c.pass
	}
	l := NewLoop(s, interval, pass, next)
	l.Start()
	t.Cleanup(func() {
		if c.gate != nil {
			close(c.gate)
		}
		l.Stop()
	})
	return l
}

func TestLoopSyncWaitsForPassStartedAfterCall(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	c.gate = make(chan struct{})
	l := startLoop(t, s, time.Hour, c, nil, nil)

	// Pass 1 is forced at Epoch, the Start instant, and held in flight:
	// a Sync at the Start instant still needs a pass of its own.
	first := make(chan struct{})
	go func() { l.Sync(); close(first) }()
	waitBegan(t, c)
	time.Sleep(20 * time.Millisecond)
	select {
	case <-first:
		t.Fatal("Sync returned before its pass completed")
	default:
	}

	// A Sync called later than pass 1's start must not be served by it.
	s.Advance(time.Second)
	called := s.Now()
	second := make(chan struct{})
	go func() { l.Sync(); close(second) }()
	waitForced(t, l)
	c.gate <- struct{}{} // finish pass 1
	<-first
	select {
	case <-second:
		t.Fatal("Sync returned on a pass that started before its call")
	default:
	}
	waitBegan(t, c)
	c.gate <- struct{}{} // finish pass 2
	<-second
	if got := c.n.Load(); got != 2 {
		t.Fatalf("passes = %d, want 2", got)
	}
	if st := c.lastStart(); st.Before(called) {
		t.Fatalf("covering pass started at %v, before the Sync call at %v", st, called)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.forced[0] || !c.forced[1] {
		t.Fatalf("Sync passes not marked forced: %v", c.forced)
	}
}

func TestLoopStopReleasesSyncIsIdempotentAndRestarts(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	c.gate = make(chan struct{})
	l := NewLoop(s, time.Hour, c.pass, nil)
	l.Start()
	go l.Sync()
	waitBegan(t, c) // pass 1 in flight, started at Epoch

	s.Advance(time.Minute)
	synced := make(chan struct{})
	go func() { l.Sync(); close(synced) }()
	waitForced(t, l)
	stopped := make(chan bool)
	go func() { stopped <- l.Stop() }()
	waitStopping(t, l)
	c.gate <- struct{}{} // let pass 1 finish so the loop can exit
	if !<-stopped {
		t.Fatal("Stop of a running loop reported false")
	}
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the blocked Sync")
	}
	if got := c.n.Load(); got != 1 {
		t.Fatalf("passes = %d, want 1 (no pass after Stop)", got)
	}
	if l.Stop() || l.Running() {
		t.Fatal("second Stop was not a no-op")
	}
	l.Sync() // a stopped loop returns at once

	close(c.gate)
	c.gate = nil
	l.Start()
	l.Start() // no-op
	defer l.Stop()
	if !l.Running() {
		t.Fatal("restarted loop not running")
	}
	s.Advance(time.Minute)
	l.Sync()
	if st := c.lastStart(); !st.Equal(Epoch.Add(2 * time.Minute)) {
		t.Fatalf("restarted loop's Sync pass started at %v, want %v", st, Epoch.Add(2*time.Minute))
	}
}

func TestLoopStopReleasesSyncBeforeAnyPass(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	hold := make(chan struct{})
	held := make(chan struct{})
	var once sync.Once
	next := func(last time.Time) (time.Time, bool) {
		// Park the loop's first due check (taken before any Sync) so Stop
		// lands before the loop ever sees the forced flag.
		once.Do(func() { close(held); <-hold })
		return last.Add(time.Hour), true
	}
	l := NewLoop(s, time.Hour, c.pass, next)
	l.Start()
	<-held
	synced := make(chan struct{})
	go func() { l.Sync(); close(synced) }()
	waitForced(t, l)
	go l.Stop()
	waitStopping(t, l)
	close(hold)
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release a Sync the loop never served")
	}
	if got := c.n.Load(); got != 0 {
		t.Fatalf("passes = %d, want 0", got)
	}
}

func TestLoopConcurrentSyncsCoalesce(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	c.gate = make(chan struct{})
	l := startLoop(t, s, time.Hour, c, nil, nil)
	go l.Sync()
	waitBegan(t, c) // pass 1 in flight

	s.Advance(time.Second)
	const syncs = 5
	var wg sync.WaitGroup
	for i := 0; i < syncs; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.Sync() }()
		waitForced(t, l)
		if i < syncs-1 {
			// Re-arm detection for the next caller; the last one leaves
			// the flag set for the loop to consume.
			l.mu.Lock()
			l.forced = false
			l.mu.Unlock()
		}
	}
	c.gate <- struct{}{} // finish pass 1
	waitBegan(t, c)
	c.gate <- struct{}{} // finish pass 2
	wg.Wait()
	waitSleeping(t, s, s.Now().Add(time.Hour))
	if got := c.n.Load(); got != 2 {
		t.Fatalf("passes = %d, want 2: %d Syncs during one pass need one more pass", got, syncs)
	}
}

func TestLoopSetIntervalRepacesSleepingLoop(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	l := startLoop(t, s, time.Hour, c, nil, nil)
	waitSleeping(t, s, Epoch.Add(time.Hour))

	l.SetInterval(time.Minute)
	if got := l.Interval(); got != time.Minute {
		t.Fatalf("Interval = %v, want 1m", got)
	}
	waitSleeping(t, s, Epoch.Add(time.Minute))
	s.Advance(time.Minute)
	waitBegan(t, c)
	waitSleeping(t, s, Epoch.Add(2*time.Minute))
}

func TestLoopNextHookWakesAtDeadline(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	var mu sync.Mutex
	due := Epoch.Add(10 * time.Second)
	deadline := due
	next := func(time.Time) (time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		return deadline, !deadline.IsZero()
	}
	startLoop(t, s, time.Hour, c, func(forced bool) {
		mu.Lock()
		deadline = time.Time{} // the pass clears what was due
		mu.Unlock()
		c.pass(forced)
	}, next)
	waitSleeping(t, s, due)

	s.Advance(9 * time.Second)
	waitSleeping(t, s, due)
	if got := c.n.Load(); got != 0 {
		t.Fatalf("passes before the deadline = %d, want 0", got)
	}
	s.Advance(time.Second)
	waitBegan(t, c)
	if st := c.lastStart(); !st.Equal(due) {
		t.Fatalf("pass at %v, want at the deadline %v", st, due)
	}
	// Nothing due: the loop sleeps a full Interval.
	waitSleeping(t, s, due.Add(time.Hour))
}

func TestLoopUnclearedDueBacksOffOneInterval(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	stuck := func(time.Time) (time.Time, bool) { return Epoch, true }
	startLoop(t, s, time.Minute, c, nil, stuck)

	waitBegan(t, c) // due at Start: pass 1 at Epoch
	waitSleeping(t, s, Epoch.Add(time.Minute))
	if got := c.n.Load(); got != 1 {
		t.Fatalf("passes = %d, want 1 (no spin on an uncleared due instant)", got)
	}
	s.Advance(time.Minute)
	waitBegan(t, c)
	waitSleeping(t, s, Epoch.Add(2*time.Minute))
	if got := c.n.Load(); got != 2 {
		t.Fatalf("passes = %d, want 2 after one Interval", got)
	}
}

func TestLoopNilHookPassesOncePerInterval(t *testing.T) {
	s := NewSim(Epoch)
	c := newCounter(s)
	startLoop(t, s, time.Minute, c, nil, nil)
	waitSleeping(t, s, Epoch.Add(time.Minute))

	s.Advance(time.Minute)
	waitBegan(t, c)
	waitSleeping(t, s, Epoch.Add(2*time.Minute))
	s.Advance(30 * time.Second)
	waitSleeping(t, s, Epoch.Add(2*time.Minute))
	if got := c.n.Load(); got != 1 {
		t.Fatalf("passes mid-interval = %d, want 1", got)
	}
	s.Advance(30 * time.Second)
	waitBegan(t, c)
	waitSleeping(t, s, Epoch.Add(3*time.Minute))
	// A long jump is one pass, not a catch-up burst.
	s.Advance(5 * time.Minute)
	waitBegan(t, c)
	waitSleeping(t, s, Epoch.Add(8*time.Minute))
	if got := c.n.Load(); got != 3 {
		t.Fatalf("passes = %d, want 3", got)
	}
}
