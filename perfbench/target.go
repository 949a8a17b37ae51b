package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/workload"
)

// timedTarget is the benchmark's timing decorator over workload.Target.
// workload.RunScenario drives it exactly as it drives a bare
// SystemTarget; the decorator only reads the wall clock around each call.
//
// Phases are told apart by the runner's own call pattern: Prepare never
// calls CostOps, and the replay loop calls it once before and once after
// every op. So everything before the first CostOps call is set-up (boot,
// declarations and the seeded population), call 2i opens op i of the
// trace and call 2i+1 closes it. Seed inserts therefore land in setup_s
// and never in insert_*.
type timedTarget struct {
	inner *workload.SystemTarget
	ops   []workload.Op
	tr    *tracer // nil in untraced runs

	calls int          // CostOps calls so far
	cur   *workload.Op // op being replayed; nil outside the trace
	boot  time.Time    // when core.Boot was called

	setup      time.Duration // boot + declarations + population seeding
	traceStart time.Time
	traceEnd   time.Time

	seedInserts []time.Duration
	inserts     []time.Duration // successful insert ops of the trace
	queries     []time.Duration // admitted DED queries
	residue     time.Duration   // median of residueScans timings
	erased      map[string]bool // subjects whose erasure succeeded
}

var _ workload.Target = (*timedTarget)(nil)

func newTimedTarget(sys *core.System, boot time.Time, ops []workload.Op, tr *tracer) *timedTarget {
	return &timedTarget{
		inner:  workload.NewSystemTarget(sys),
		ops:    ops,
		tr:     tr,
		boot:   boot,
		erased: make(map[string]bool),
	}
}

// inTrace reports whether a trace op is being replayed.
func (t *timedTarget) inTrace() bool { return t.cur != nil }

// layer records the span of one call into a layer, under the current op.
func (t *timedTarget) layer(name string, start time.Time, d time.Duration) uint64 {
	if t.tr == nil || !t.inTrace() {
		return 0
	}
	return t.tr.layer(name, start, d)
}

// Name labels the target.
func (t *timedTarget) Name() string { return t.inner.Name() }

// DeclareTypesDSL declares the scenario's types.
func (t *timedTarget) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	return t.inner.DeclareTypesDSL(src, copts)
}

// CreateType declares one schema directly.
func (t *timedTarget) CreateType(sch *dbfs.Schema) error { return t.inner.CreateType(sch) }

// Register installs a query processing.
func (t *timedTarget) Register(decl *purpose.Decl, impl *ded.Func) error {
	return t.inner.Register(decl, impl)
}

// SetRateLimit installs a per-purpose admission token bucket.
func (t *timedTarget) SetRateLimit(purposeName string, ratePerSec, burst float64) error {
	return t.inner.SetRateLimit(purposeName, ratePerSec, burst)
}

// Insert times dbfs.Store.Insert: a seed insert before the trace, a
// collection write for insert ops, a session insert for retention ops.
func (t *timedTarget) Insert(typeName, subjectID string, rec dbfs.Record) (string, error) {
	start := time.Now()
	pdid, err := t.inner.Insert(typeName, subjectID, rec)
	d := time.Since(start)
	switch {
	case t.calls == 0:
		t.seedInserts = append(t.seedInserts, d)
	case t.inTrace():
		t.layer("dbfs.Insert", start, d)
		if t.cur.Class == workload.ClassInsert && err == nil {
			t.inserts = append(t.inserts, d)
			delete(t.erased, subjectID)
		}
	}
	return pdid, err
}

// Update times dbfs.Store.Update.
func (t *timedTarget) Update(pdid string, rec dbfs.Record) error {
	start := time.Now()
	err := t.inner.Update(pdid, rec)
	t.layer("dbfs.Update", start, time.Since(start))
	return err
}

// Invoke times ps.Store.Invoke. Queries the admission controller sheds are
// not timed (the runner counts them as rejected): a rejection is fast and
// would flatter the latency.
func (t *timedTarget) Invoke(req ps.InvokeRequest) (*ded.Result, error) {
	start := time.Now()
	res, err := t.inner.Invoke(req)
	d := time.Since(start)
	if errors.Is(err, admission.ErrOverloaded) {
		return res, err
	}
	t.queries = append(t.queries, d)
	if id := t.layer("ps.Invoke", start, d); id != 0 && res != nil {
		t.tr.dedStages(id, start, d, res)
	}
	return res, err
}

// Access times rights.Engine.Access (Art. 15, one subject).
func (t *timedTarget) Access(subjectID string) (*rights.AccessReport, error) {
	start := time.Now()
	rep, err := t.inner.Access(subjectID)
	t.layer("rights.Access", start, time.Since(start))
	return rep, err
}

// AccessBatch times rights.Engine.AccessBatch (Art. 15, bulk).
func (t *timedTarget) AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error) {
	start := time.Now()
	reps, err := t.inner.AccessBatch(subjectIDs)
	if t.layer("rights.AccessBatch", start, time.Since(start)) != 0 {
		t.tr.batchSubjects += len(subjectIDs)
	}
	return reps, err
}

// Erase times rights.Engine.Erase (Art. 17, crypto-shred and copies).
func (t *timedTarget) Erase(subjectID string) ([]string, error) {
	start := time.Now()
	erased, err := t.inner.Erase(subjectID)
	t.layer("rights.Erase", start, time.Since(start))
	if err == nil {
		t.erased[subjectID] = true
	}
	return erased, err
}

// SetConsent times rights.Engine.SetConsent.
func (t *timedTarget) SetConsent(subjectID, purposeName string, g membrane.Grant) error {
	start := time.Now()
	err := t.inner.SetConsent(subjectID, purposeName, g)
	t.layer("rights.Consent", start, time.Since(start))
	return err
}

// WithdrawConsent times rights.Engine.WithdrawConsent.
func (t *timedTarget) WithdrawConsent(subjectID, purposeName string) error {
	start := time.Now()
	err := t.inner.WithdrawConsent(subjectID, purposeName)
	t.layer("rights.Consent", start, time.Since(start))
	return err
}

// SweepExpired times one rights.Engine.SweepExpired pass.
func (t *timedTarget) SweepExpired() ([]string, error) {
	start := time.Now()
	swept, err := t.inner.SweepExpired()
	t.layer("rights.SweepExpired", start, time.Since(start))
	if err == nil && t.tr != nil {
		t.tr.sweptRecords += len(swept)
	}
	return swept, err
}

// GetRecord reads one record; the runner calls it only for its
// erased-but-readable invariant, so it is not timed.
func (t *timedTarget) GetRecord(pdid string) (dbfs.Record, error) { return t.inner.GetRecord(pdid) }

// residueScans is how many times the post-run residue scan is repeated:
// one scan copies and walks every device block, and a single timing of it
// swings with page faults, GC and memory traffic from other tenants, so the
// median of five is reported.
const residueScans = 5

// ResidueScan times core.System.ResidueScanAny, the post-run raw-device
// scan for plaintext of erased secrets. Every scan must find the same
// hits; a disagreement is reported as a residue hit.
func (t *timedTarget) ResidueScan(patterns [][]byte) int {
	var times []float64
	hits := -1
	for i := 0; i < residueScans; i++ {
		runtime.GC()
		start := time.Now()
		n := t.inner.ResidueScan(patterns)
		times = append(times, float64(time.Since(start)))
		if hits >= 0 && n != hits {
			n = max(n, hits, 1)
		}
		hits = n
	}
	t.residue = time.Duration(median(times))
	return hits
}

// CostOps marks the op boundaries (see timedTarget). The wall clock is
// read after the opening call and before the closing one, so an op's
// interval covers only its execution, not the counter snapshots around it.
func (t *timedTarget) CostOps() uint64 {
	opening := t.calls%2 == 0
	if !opening {
		t.traceEnd = time.Now()
		t.closeOp(t.traceEnd)
		if t.tr != nil && t.calls == 2*len(t.ops)-1 {
			t.tr.traceEnds()
		}
	}
	v := t.inner.CostOps()
	if opening {
		if t.tr != nil && t.calls == 0 {
			t.tr.traceBegins()
		}
		var op *workload.Op
		if i := t.calls / 2; i < len(t.ops) {
			op = &t.ops[i]
		}
		now := t.openOp(op)
		if t.calls == 0 {
			t.setup = now.Sub(t.boot)
			t.traceStart = now
		}
	}
	t.calls++
	return v
}

// openOp makes op current and returns the time it starts.
func (t *timedTarget) openOp(op *workload.Op) time.Time {
	t.cur = op
	if t.tr != nil && op != nil {
		t.tr.beginOp(op.Class)
	}
	now := time.Now()
	if t.tr != nil && op != nil {
		t.tr.startRoot(now)
	}
	return now
}

// closeOp ends the current op at now.
func (t *timedTarget) closeOp(now time.Time) {
	if t.tr != nil && t.cur != nil {
		t.tr.endOp(now)
	}
	t.cur = nil
}

// export runs the post-run regulator export over subjects and checks each
// report from the subject's side: a subject whose erasure succeeded (and
// who got no new record since) exports no readable record of the scenario
// type, and every other subject exports at least one. It returns the
// number of batches attempted and one line per violation.
func (t *timedTarget) export(sc workload.Scenario, subjects []string) (int, []string) {
	var bad []string
	batches := 0
	for lo := 0; lo < len(subjects); lo += exportBatch {
		batch := subjects[lo:min(lo+exportBatch, len(subjects))]
		batches++
		op := workload.Op{Class: workload.ClassAccessBatch, Batch: batch}
		t.openOp(&op)
		reps, err := t.AccessBatch(batch)
		t.closeOp(time.Now())
		if err != nil {
			bad = append(bad, fmt.Sprintf("export: %v", err))
			continue
		}
		if len(reps) != len(batch) {
			bad = append(bad, fmt.Sprintf("export: %d reports for %d subjects", len(reps), len(batch)))
			continue
		}
		for i, rep := range reps {
			if rep == nil || rep.SubjectID != batch[i] {
				bad = append(bad, fmt.Sprintf("export: report %d is not for %s", i, batch[i]))
				continue
			}
			live := 0
			for _, e := range rep.Data[sc.TypeName] {
				switch {
				case !e.Erased:
					live++
				case len(e.Fields) > 0:
					bad = append(bad, fmt.Sprintf("export: erased record %s of %s shows fields", e.PDID, rep.SubjectID))
				}
			}
			if t.erased[rep.SubjectID] && live > 0 {
				bad = append(bad, fmt.Sprintf("export: erased subject %s exports %d readable records", rep.SubjectID, live))
			}
			if !t.erased[rep.SubjectID] && live == 0 {
				bad = append(bad, fmt.Sprintf("export: subject %s exports no record", rep.SubjectID))
			}
		}
	}
	return batches, bad
}

// SimClock exposes the system's simulated clock for pacing.
func (t *timedTarget) SimClock() *simclock.Sim { return t.inner.SimClock() }
