package coldtier

// The background repacker: a simclock.Loop that fires repack passes on the
// machine clock. The pass itself lives in dbfs — the repacker only owns
// cadence, lifecycle and counters, so the package stays free of a dbfs
// dependency and core can wire the two together with a closure carrying
// the DED's capability token.

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// PassStats is what one repack pass over the store reports.
type PassStats struct {
	// Demoted counts records migrated hot → archive this pass; Subjects
	// counts the subject archives rewritten.
	Demoted  int
	Subjects int
	// DedupHits counts parts that content-addressed onto chunks already
	// archived (unchanged records re-demoting after a promotion).
	DedupHits int
	// RawBytes / StoredBytes are the logical bytes demoted this pass and
	// the unique chunk bytes they occupy after dedup (before compression).
	RawBytes    int64
	StoredBytes int64
}

// Target runs one repack pass at the given instant. dbfs.Store's RepackCold
// is the real implementation; core binds it with its token via TargetFunc.
type Target interface {
	RepackPass(now time.Time) (PassStats, error)
}

// TargetFunc adapts a closure to Target.
type TargetFunc func(now time.Time) (PassStats, error)

// RepackPass implements Target.
func (f TargetFunc) RepackPass(now time.Time) (PassStats, error) { return f(now) }

// Stats counts the background repacker's activity.
type Stats struct {
	// Passes counts completed repack passes; Errors the failed subset.
	Passes uint64
	Errors uint64
	// Demoted / DedupHits accumulate the per-pass results.
	Demoted   uint64
	DedupHits uint64
	// LastPass is the start instant of the last completed pass.
	LastPass time.Time
}

// DefaultRepackInterval is the fallback pass cadence when
// Options.Interval is unset.
const DefaultRepackInterval = time.Minute

// Options configures a Repacker.
type Options struct {
	// Interval is the gap between repack passes. Default one minute.
	Interval time.Duration
}

// Repacker is the background demotion loop: a simclock.Loop running one
// repack pass against its target every Interval. Start/Stop are idempotent
// and a stopped repacker can be restarted; under a Sim clock tests drive it
// deterministically (advance, Sync, assert).
type Repacker struct {
	clock  simclock.Clock
	target Target
	loop   *simclock.Loop

	mu    sync.Mutex
	stats Stats
}

// NewRepacker builds a repacker over target on clock. Call Start to run it.
func NewRepacker(clock simclock.Clock, target Target, opts Options) *Repacker {
	if clock == nil {
		clock = simclock.Real{}
	}
	iv := opts.Interval
	if iv <= 0 {
		iv = DefaultRepackInterval
	}
	rp := &Repacker{clock: clock, target: target}
	rp.loop = simclock.NewLoop(clock, iv, func(bool) { rp.pass() }, nil)
	return rp
}

// Interval reports the current pass cadence.
func (rp *Repacker) Interval() time.Duration { return rp.loop.Interval() }

// SetInterval changes the pass cadence at runtime (d <= 0 restores
// DefaultRepackInterval) and kicks a sleeping loop so the new cadence takes
// effect immediately.
func (rp *Repacker) SetInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultRepackInterval
	}
	rp.loop.SetInterval(d)
}

// Start launches the background loop. Starting a running repacker is a
// no-op.
func (rp *Repacker) Start() { rp.loop.Start() }

// Stop halts the loop and waits for it to exit; an in-flight pass finishes.
// Stopping a stopped repacker is a no-op.
func (rp *Repacker) Stop() { rp.loop.Stop() }

// Running reports whether the loop is active.
func (rp *Repacker) Running() bool { return rp.loop.Running() }

// Stats snapshots the repacker counters.
func (rp *Repacker) Stats() Stats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.stats
}

// Sync forces a repack pass covering the instant of the call and blocks
// until it completes (or the repacker stops) — the deterministic join
// point for simclock tests.
func (rp *Repacker) Sync() { rp.loop.Sync() }

// pass runs one repack and records its outcome.
func (rp *Repacker) pass() {
	start := rp.clock.Now()
	st, err := rp.target.RepackPass(start)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.stats.Passes++
	if err != nil {
		rp.stats.Errors++
	}
	rp.stats.Demoted += uint64(st.Demoted)
	rp.stats.DedupHits += uint64(st.DedupHits)
	rp.stats.LastPass = start
}
