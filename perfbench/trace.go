package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/ded"
	"repro/internal/workload"
)

// The traced run: spans around every call the decorator makes into a
// layer, and counter snapshots at the same op boundaries. Spans are kept
// in memory and written out when the run ends; the counters become the
// per-layer metrics.

// span is one timed interval. Every span of one op shares Op; Parent is
// the span that caused it (0 for an op's root span).
type span struct {
	ID     uint64 `json:"id"`
	Op     uint64 `json:"op"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the run
	End    int64  `json:"end_ns"`
}

// Counter slots read at every op boundary.
const (
	cMembraneReads = iota
	cMembraneWrites
	cDataReads
	cMCacheHits
	cMCacheMisses
	cMCacheEvictions
	cBCacheHits
	cBCacheMisses
	cBCacheEvictions
	cBCacheWritebacks
	cWALTxns
	cWALBlocks
	cWALGroups
	cPDReads
	cPDWrites
	cPDSyncs
	cPDBytesWritten
	cPDSimNs
	cNPDWrites
	cBusMessages
	cBusBytes
	cAuditEntries
	cShardScans
	cAllocBytes
	cAllocObjects
	numCounters
)

type counters [numCounters]uint64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// layerClasses are the op classes the per-class layer metrics split by.
var layerClasses = []workload.OpClass{
	workload.ClassInsert, workload.ClassDEDQuery, workload.ClassAccess,
	workload.ClassAccessBatch, workload.ClassErase, workload.ClassConsent,
	workload.ClassRetention,
}

// classAgg sums the counter deltas of one op class.
type classAgg struct {
	ops   int
	delta counters
}

// repLayer holds the per-rep gauges of the traced run.
type repLayer struct {
	bootMs        float64
	liveKeysEnd   float64
	gcCycles      float64
	gcPauseMs     float64
	residueNsBlk  float64
	admitted      float64
	rejectedRate  float64
	rejectedTotal float64
	opsPerSec     float64
}

// tracer records spans and counts for the traced run.
type tracer struct {
	epoch     time.Time
	keepSpans bool // only the first traced rep's spans are written out
	spans     []span
	nextSpan  uint64
	nextOp    uint64

	sys      *core.System
	samples  []metrics.Sample
	class    workload.OpClass
	root     span
	before   counters
	perClass map[workload.OpClass]*classAgg
	total    classAgg

	layers        map[string][]time.Duration
	stages        ded.StageTimings
	dedQueries    int
	dedSelf       time.Duration
	processed     int
	filtered      int
	batchSubjects int
	sweptRecords  int
	seedInserts   []time.Duration
	cur           repLayer // the rep being traced
	gc0           uint32
	pause0        time.Duration
	reps          []repLayer
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		keepSpans: true,
		perClass:  make(map[workload.OpClass]*classAgg),
		layers:    make(map[string][]time.Duration),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

// attach points the tracer at a freshly booted system.
func (tr *tracer) attach(sys *core.System) { tr.sys = sys }

// snapshot reads every counter slot. The Go allocation counters are read
// last on the way in and first on the way out (see beginOp and endOp), so
// the snapshot's own allocations stay outside the op.
func (tr *tracer) snapshot(c *counters) {
	st := tr.sys.Stats()
	js := tr.sys.DBFS().JournalStats()
	c[cMembraneReads] = st.DBFS.MembraneReads
	c[cMembraneWrites] = st.DBFS.MembraneWrites
	c[cDataReads] = st.DBFS.DataReads
	c[cMCacheHits] = st.DBFS.CacheHits
	c[cMCacheMisses] = st.DBFS.CacheMisses
	c[cMCacheEvictions] = st.DBFS.CacheEvictions
	c[cBCacheHits] = st.DBFS.BlockCacheHits
	c[cBCacheMisses] = st.DBFS.BlockCacheMisses
	c[cBCacheEvictions] = st.DBFS.BlockCacheEvictions
	c[cBCacheWritebacks] = st.DBFS.BlockWritebacks
	c[cWALTxns] = js.TxnsCommitted
	c[cWALBlocks] = js.BlocksLogged
	c[cWALGroups] = js.GroupCommits
	c[cPDReads] = st.PDDisk.Reads
	c[cPDWrites] = st.PDDisk.Writes
	c[cPDSyncs] = st.PDDisk.Syncs
	c[cPDBytesWritten] = st.PDDisk.BytesWritten
	c[cPDSimNs] = uint64(st.PDDisk.SimLatency)
	c[cNPDWrites] = st.NPDDisk.Writes
	c[cBusMessages] = st.Bus.Messages
	c[cBusBytes] = st.Bus.Bytes
	c[cAuditEntries] = uint64(st.Audit)
	var scans uint64
	for _, n := range tr.sys.DBFS().ShardScans() {
		scans += n
	}
	c[cShardScans] = scans
}

func (tr *tracer) readAllocs(c *counters) {
	metrics.Read(tr.samples)
	c[cAllocBytes] = tr.samples[0].Value.Uint64()
	c[cAllocObjects] = tr.samples[1].Value.Uint64()
}

// beginOp snapshots the counters before an op of class c.
func (tr *tracer) beginOp(c workload.OpClass) {
	tr.class = c
	tr.snapshot(&tr.before)
	tr.readAllocs(&tr.before)
}

// startRoot opens the op's root span.
func (tr *tracer) startRoot(now time.Time) {
	tr.nextOp++
	tr.nextSpan++
	tr.root = span{ID: tr.nextSpan, Op: tr.nextOp, Name: "op." + tr.class.String(), Start: tr.ns(now)}
}

// endOp closes the root span and charges the counter deltas to the class.
func (tr *tracer) endOp(now time.Time) {
	tr.root.End = tr.ns(now)
	tr.record(tr.root)
	var after counters
	tr.readAllocs(&after)
	tr.snapshot(&after)
	d := after.sub(tr.before)
	agg := tr.perClass[tr.class]
	if agg == nil {
		agg = &classAgg{}
		tr.perClass[tr.class] = agg
	}
	agg.ops++
	agg.delta.add(d)
	tr.total.ops++
	tr.total.delta.add(d)
}

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }

func (tr *tracer) record(s span) {
	if tr.keepSpans {
		tr.spans = append(tr.spans, s)
	}
}

// layer records a child span of the current op for one call into a layer.
func (tr *tracer) layer(name string, start time.Time, d time.Duration) uint64 {
	tr.nextSpan++
	s := span{ID: tr.nextSpan, Op: tr.root.Op, Parent: tr.root.ID, Name: name, Start: tr.ns(start)}
	s.End = s.Start + d.Nanoseconds()
	tr.record(s)
	tr.layers[name] = append(tr.layers[name], d)
	return s.ID
}

// dedStages records the eight DED stages of one admitted query as
// grandchild spans, laid end to end from the Invoke span's start (the
// pipeline runs them in order), and the ps self time: the Invoke span
// minus the part its stage children cover.
func (tr *tracer) dedStages(parent uint64, start time.Time, invoke time.Duration, res *ded.Result) {
	t := res.Timings
	at := tr.ns(start)
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"ded.type2req", t.Type2Req}, {"ded.load_membrane", t.LoadMembrane},
		{"ded.filter", t.Filter}, {"ded.load_data", t.LoadData},
		{"ded.execute", t.Execute}, {"ded.build_membrane", t.BuildMembrane},
		{"ded.store", t.Store}, {"ded.return", t.Return},
	} {
		tr.nextSpan++
		tr.record(span{ID: tr.nextSpan, Op: tr.root.Op, Parent: parent, Name: st.name, Start: at, End: at + st.d.Nanoseconds()})
		at += st.d.Nanoseconds()
	}
	tr.stages.Type2Req += t.Type2Req
	tr.stages.LoadMembrane += t.LoadMembrane
	tr.stages.Filter += t.Filter
	tr.stages.LoadData += t.LoadData
	tr.stages.Execute += t.Execute
	tr.stages.BuildMembrane += t.BuildMembrane
	tr.stages.Store += t.Store
	tr.stages.Return += t.Return
	tr.dedQueries++
	tr.dedSelf += invoke - t.Total()
	tr.processed += res.Processed
	for _, n := range res.Filtered {
		tr.filtered += n
	}
}

// endRep folds the traced rep's gauges.
func (tr *tracer) endRep() {
	tr.reps = append(tr.reps, tr.cur)
	tr.cur = repLayer{}
	tr.keepSpans = false
}

// traceBegins and traceEnds bracket the replay of the trace with GC
// readings (ReadMemStats stops the world, so only twice a rep).
func (tr *tracer) traceBegins() { tr.gc0, tr.pause0 = gcState() }

func (tr *tracer) traceEnds() {
	gc, pause := gcState()
	tr.cur.gcCycles = float64(gc - tr.gc0)
	tr.cur.gcPauseMs = float64(pause-tr.pause0) / float64(time.Millisecond)
}

func gcState() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// writeSpans writes the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp divides a counter total by an op count.
func perOp(agg *classAgg, slot int) float64 {
	if agg == nil {
		return 0
	}
	return ratio(float64(agg.delta[slot]), float64(agg.ops))
}

func repMedian(reps []repLayer, f func(repLayer) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// layerMetrics computes every per-layer metric from the traced reps.
func (tr *tracer) layerMetrics() (map[string]float64, error) {
	m := make(map[string]float64)
	var err error
	pct := func(name string, ds []time.Duration, q float64) {
		if err != nil {
			return
		}
		var v time.Duration
		if v, err = percentile(ds, q); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		m[name] = us(v)
	}
	nreps := float64(len(tr.reps))

	m["core.boot_ms"] = repMedian(tr.reps, func(r repLayer) float64 { return r.bootMs })
	pct("core.seed_insert_us_p50", tr.seedInserts, 0.50)

	inv := tr.layers["ps.Invoke"]
	pct("ps.invoke_us_p50", inv, 0.50)
	pct("ps.invoke_us_p99", inv, 0.99)
	m["ps.self_us_mean"] = ratio(us(tr.dedSelf), float64(tr.dedQueries))
	m["admission.admitted"] = repMedian(tr.reps, func(r repLayer) float64 { return r.admitted })
	m["admission.rejected_rate"] = repMedian(tr.reps, func(r repLayer) float64 { return r.rejectedRate })
	m["admission.reject_ratio"] = repMedian(tr.reps, func(r repLayer) float64 {
		return ratio(r.rejectedTotal, r.admitted+r.rejectedTotal)
	})

	q := float64(tr.dedQueries)
	st := tr.stages
	m["ded.type2req_us"] = ratio(us(st.Type2Req), q)
	m["ded.load_membrane_us"] = ratio(us(st.LoadMembrane), q)
	m["ded.filter_us"] = ratio(us(st.Filter), q)
	m["ded.load_data_us"] = ratio(us(st.LoadData), q)
	m["ded.execute_us"] = ratio(us(st.Execute), q)
	m["ded.build_membrane_us"] = ratio(us(st.BuildMembrane), q)
	m["ded.store_us"] = ratio(us(st.Store), q)
	m["ded.return_us"] = ratio(us(st.Return), q)
	m["ded.records_per_query"] = ratio(float64(tr.processed+tr.filtered), q)
	m["ded.useful_ratio"] = ratio(float64(tr.processed), float64(tr.processed+tr.filtered))

	m["rights.access_us_mean"] = meanUS(tr.layers["rights.Access"])
	var batch time.Duration
	for _, d := range tr.layers["rights.AccessBatch"] {
		batch += d
	}
	m["rights.access_batch_us_per_subject"] = ratio(us(batch), float64(tr.batchSubjects))
	m["rights.erase_us_mean"] = meanUS(tr.layers["rights.Erase"])
	m["rights.consent_us_mean"] = meanUS(tr.layers["rights.Consent"])
	sweeps := tr.layers["rights.SweepExpired"]
	m["rights.sweep_us_mean"] = meanUS(sweeps)
	m["rights.sweep_deleted_per_pass"] = ratio(float64(tr.sweptRecords), float64(len(sweeps)))

	tot := &tr.total
	m["dbfs.insert_us_mean"] = meanUS(tr.layers["dbfs.Insert"])
	m["dbfs.update_us_mean"] = meanUS(tr.layers["dbfs.Update"])
	m["dbfs.membrane_cache_hit_ratio"] = ratio(float64(tot.delta[cMCacheHits]),
		float64(tot.delta[cMCacheHits]+tot.delta[cMCacheMisses]))
	m["dbfs.membrane_cache_evictions"] = ratio(float64(tot.delta[cMCacheEvictions]), nreps)
	m["dbfs.membrane_writes_per_op"] = perOp(tot, cMembraneWrites)
	m["dbfs.data_reads_per_op"] = perOp(tot, cDataReads)
	m["dbfs.shard_scans_per_op"] = perOp(tot, cShardScans)

	m["wal.blocks_logged_per_op"] = perOp(tot, cWALBlocks)
	m["wal.txns_per_group"] = ratio(float64(tot.delta[cWALTxns]), float64(tot.delta[cWALGroups]))

	m["blockdev.cache_hit_ratio"] = ratio(float64(tot.delta[cBCacheHits]),
		float64(tot.delta[cBCacheHits]+tot.delta[cBCacheMisses]))
	m["blockdev.cache_evictions"] = ratio(float64(tot.delta[cBCacheEvictions]), nreps)
	m["blockdev.cache_writebacks"] = ratio(float64(tot.delta[cBCacheWritebacks]), nreps)
	m["blockdev.pd_syncs_per_op"] = perOp(tot, cPDSyncs)
	m["blockdev.pd_bytes_written_per_op"] = perOp(tot, cPDBytesWritten)
	m["blockdev.npd_writes_per_op"] = perOp(tot, cNPDWrites)
	m["blockdev.residue_scan_ns_per_block"] = repMedian(tr.reps, func(r repLayer) float64 { return r.residueNsBlk })

	m["audit.entries_per_op"] = perOp(tot, cAuditEntries)
	m["kernel.bus_messages_per_op"] = perOp(tot, cBusMessages)
	m["kernel.bus_bytes_per_op"] = perOp(tot, cBusBytes)
	m["cryptoshred.live_keys_end"] = repMedian(tr.reps, func(r repLayer) float64 { return r.liveKeysEnd })

	m["go.mallocs_per_op"] = perOp(tot, cAllocObjects)
	m["go.gc_cycles"] = repMedian(tr.reps, func(r repLayer) float64 { return r.gcCycles })
	m["go.gc_pause_ms"] = repMedian(tr.reps, func(r repLayer) float64 { return r.gcPauseMs })
	m["trace.ops_per_s"] = repMedian(tr.reps, func(r repLayer) float64 { return r.opsPerSec })

	for _, c := range layerClasses {
		agg := tr.perClass[c]
		m["dbfs.membrane_reads_per_op."+c.String()] = perOp(agg, cMembraneReads)
		m["wal.txns_per_op."+c.String()] = perOp(agg, cWALTxns)
		m["blockdev.cache_reads_per_op."+c.String()] = perOp(agg, cBCacheHits) + perOp(agg, cBCacheMisses)
		m["blockdev.pd_reads_per_op."+c.String()] = perOp(agg, cPDReads)
		m["blockdev.pd_writes_per_op."+c.String()] = perOp(agg, cPDWrites)
		m["blockdev.sim_us_per_op."+c.String()] = perOp(agg, cPDSimNs) / 1e3
		m["go.alloc_bytes_per_op."+c.String()] = perOp(agg, cAllocBytes)
	}
	return m, err
}
