// Command rgpdbench is the wall-clock benchmark of rgpdOS. It boots a fresh
// core.System per repetition, replays a seeded internal/workload trace
// against it through a timing decorator over workload.Target (closed loop,
// one client, simulated clock paced to each op's arrival offset exactly as
// the SC9 scenarios do), checks the regulator invariants, and prints every
// end-to-end metric by name and unit. With -trace 1 it records spans and
// counter deltas around each call into a layer and prints the per-layer
// metrics instead.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	rgpdbench -workload clinic|audit|breach -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// holdoutSeed is never used while the benchmark or a change is tuned; a
// claimed gain must also hold on it.
const holdoutSeed = 90210

// workloadDef binds a benchmark workload to one SC9 scenario at its
// full-scale rates. Only the population and the simulated duration differ
// from the scenario's own mix.
type workloadDef struct {
	name     string
	scenario string
	subjects int
	duration time.Duration // simulated length of one trace
	// traces is how many traces one run replays, in rotation. Each
	// workload's cost hangs on a few rare, heavy ops (bulk exports,
	// erasure waves, queries on the Zipf-hottest subjects), and how many
	// of them one trace draws varies with the seed; a run over several
	// traces averages that out. breach's repetitions are the cheapest, so
	// it affords a fourth trace.
	traces int
	why    string
}

// workloads are chosen to stress different layers; PREDICTIONS.md records
// which per-layer metric each should move and which should stay put. Each
// population keeps workload.BootSizing clear of a doubling step for every
// seed, so the devices, and with them heap_mb and residue_scan_s, do not
// jump between seeds.
var workloads = []workloadDef{
	{
		name: "clinic", scenario: "health-records", subjects: 1000, duration: 24 * time.Second, traces: 3,
		why: "deep Zipf-hot subjects: DED queries over hundreds of records thrash one 128-entry membrane-cache shard",
	},
	{
		name: "audit", scenario: "regulator-audit", subjects: 2000, duration: 45 * time.Second, traces: 3,
		why: "wide population: bulk Art. 15 AccessBatch rotation and token-bucket shedding of query bursts",
	},
	{
		name: "breach", scenario: "breach-response", subjects: 1800, duration: 35 * time.Second, traces: 4,
		why: "write-heavy rights waves: consent withdrawals and erasures on a working set that fits the caches",
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scenarioFor returns the workload's scenario with its population and
// duration applied.
func scenarioFor(def workloadDef) (workload.Scenario, error) {
	sc, ok := workload.LookupScenario(def.scenario)
	if !ok {
		return workload.Scenario{}, fmt.Errorf("unknown scenario %q", def.scenario)
	}
	sc.Mix.Subjects = def.subjects
	sc.Mix.Duration = def.duration
	return sc, nil
}

// bootOptions are SC9's: two workers, a 256-block journal, a 1024-bit
// authority, seeded vault entropy and devices sized by workload.BootSizing;
// default caches, no control plane, no cold tier, one FS instance.
func bootOptions(sc workload.Scenario, ops []workload.Op, seed uint64) core.Options {
	blocks, npdBlocks, inodes := workload.BootSizing(sc.Mix, ops)
	return core.Options{
		Clock:         simclock.NewSim(simclock.Epoch),
		CryptoRand:    xrand.NewReader(seed),
		AuthorityBits: 1024,
		PDDiskBlocks:  blocks,
		NPDDiskBlocks: npdBlocks,
		NInodes:       inodes,
		JournalBlocks: 256,
		Workers:       2,
	}
}

// traceSeed derives the seed of trace k of a run; trace 0 is generated from
// the seed itself.
func traceSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9E3779B97F4A7C15 }

// maxReps bounds the repetitions a run adds to reach its sample counts.
const maxReps = 12

// enoughSamples reports whether the repetitions so far support every
// percentile the run reports.
func enoughSamples(reps []*rep, tr *tracer) error {
	if tr != nil {
		_, err := tr.layerMetrics()
		return err
	}
	_, err := endToEnd(reps)
	return err
}

// exportBatch is the batch size of the post-run regulator export: an
// Art. 15 AccessBatch over the whole population. It runs on every
// workload, so the access-batch layer metrics exist on every workload, and
// it checks erasure from each subject's side: an erased subject exports no
// readable record.
const exportBatch = 100

// rep is the outcome of one repetition: boot, seed, replay, verify.
type rep struct {
	tt        *timedTarget
	vector    string // per-class ok/rejected/denied/failed, one line
	opsPerSec float64
	heapMB    float64
	attempted int
	failed    int
	problems  []string
}

// warmHeap grows the Go heap by n bytes, faults its pages in and frees it
// again before anything is measured. Without it the first repetition of a
// run paid for growing the heap from nothing: its set-up measured 10-40%
// slower than the later ones.
func warmHeap(n uint64) {
	b := make([]byte, n)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	runtime.GC()
}

// runRep boots a fresh system and replays the trace once.
func runRep(sc workload.Scenario, ops []workload.Op, seed uint64, tr *tracer) (*rep, error) {
	opts := bootOptions(sc, ops, seed)
	start := time.Now()
	sys, err := core.Boot(opts)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	bootDur := time.Since(start)
	if tr != nil {
		tr.attach(sys)
	}
	tt := newTimedTarget(sys, start, ops, tr)
	card, err := workload.RunScenario(tt, sc, workload.RunConfig{Seed: seed, Pace: true})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	r := &rep{tt: tt, attempted: len(ops)}
	if tt.calls != 2*len(ops) {
		r.problems = append(r.problems, fmt.Sprintf("runner replayed %d op boundaries, trace has %d ops", tt.calls, len(ops)))
	}
	r.opsPerSec = float64(len(ops)) / tt.traceEnd.Sub(tt.traceStart).Seconds()

	var b strings.Builder
	for _, row := range card.Classes {
		fmt.Fprintf(&b, "%s=%d/%d/%d/%d ", row.Class, row.OK, row.Rejected, row.Denied, row.Failed)
		r.failed += int(row.Failed)
	}
	inv := card.Invariants
	if !card.Clean() {
		r.problems = append(r.problems, fmt.Sprintf("invariants: residue=%d erased-readable=%d consent-mismatch=%d access-checked=%d",
			inv.ResidueHits, inv.ErasedReadable, inv.ConsentMismatches, inv.AccessChecked))
	}
	if inv.ResidueChecked == 0 {
		r.problems = append(r.problems, "no erased secret was residue-scanned")
	}

	exported, bad := tt.export(sc, workload.SubjectIDs(sc.Mix.Subjects))
	r.attempted += exported
	r.problems = append(r.problems, bad...)
	fmt.Fprintf(&b, "export=%d/%d", exported-len(bad), len(bad))
	r.vector = b.String()
	r.failed += len(r.problems)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if tr != nil {
		adm := sys.PS().Stats().Admission
		tr.cur.bootMs = float64(bootDur) / float64(time.Millisecond)
		tr.cur.liveKeysEnd = float64(sys.Vault().LiveKeys())
		tr.cur.residueNsBlk = float64(tt.residue.Nanoseconds()) / float64(opts.PDDiskBlocks+opts.NPDDiskBlocks)
		tr.cur.admitted = float64(adm.Admitted)
		tr.cur.rejectedRate = float64(adm.RejectedRate)
		tr.cur.rejectedTotal = float64(adm.RejectedRate + adm.RejectedQueue)
		tr.cur.opsPerSec = r.opsPerSec
		tr.seedInserts = append(tr.seedInserts, tt.seedInserts...)
		tr.endRep()
		tr.attach(nil)
	}
	// Drop the system: a rep keeps only its measurements, so the next rep's
	// heap does not carry this one's devices.
	tt.inner = nil
	return r, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta records how and where a run was made.
type meta struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	Scenario    string `json:"scenario"`
	Subjects    int    `json:"subjects"`
	SimSeconds  int    `json:"sim_seconds"`
	Seed        uint64 `json:"seed"`
	HoldoutSeed uint64 `json:"holdout_seed"`
	Trace       bool   `json:"trace"`
	Reps        int    `json:"reps"`
	TraceOps    []int  `json:"trace_ops"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	LoadModel   string `json:"load_model"`
	SetupNote   string `json:"setup_note"`
}

const setupNote = "setup_s includes core.Boot's RSA-1024 authority key generation, which reads crypto/rand and is not seeded; " +
	"the traced run reports it as core.boot_ms"

// config is one benchmark invocation.
type config struct {
	def     workloadDef
	seed    uint64
	seconds int
	traced  bool
	root    string // repository root: spans go under its .bench_build/; empty writes none
}

// bench replays the run's traces in rotation until the time budget is spent
// and each has run once, then folds the repetitions into the result.
func bench(cfg config, log io.Writer) (*result, *meta, error) {
	sc, err := scenarioFor(cfg.def)
	if err != nil {
		return nil, nil, err
	}
	traces := make([][]workload.Op, cfg.def.traces)
	md := &meta{
		Workload: cfg.def.name, Why: cfg.def.why, Scenario: sc.Name, Subjects: sc.Mix.Subjects,
		SimSeconds: int(sc.Mix.Duration / time.Second), Seed: cfg.seed, HoldoutSeed: holdoutSeed,
		Trace: cfg.traced, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(cfg.root),
		LoadModel: "closed loop, 1 client, simulated clock paced to each op's arrival offset",
		SetupNote: setupNote,
	}
	for k := range traces {
		if traces[k], err = workload.Generate(sc.Mix, traceSeed(cfg.seed, k)); err != nil {
			return nil, nil, err
		}
		md.TraceOps = append(md.TraceOps, len(traces[k]))
	}

	opts := bootOptions(sc, traces[0], cfg.seed)
	warmHeap(2 * (opts.PDDiskBlocks + opts.NPDDiskBlocks) * blockdev.BlockSize)
	var tr *tracer
	var checked []*rep // every replay: its outcomes count toward attempted and failed
	vectors := make([]string, len(traces))
	if cfg.traced {
		// One untraced replay of the first trace: its throughput against
		// the traced replays of the same trace is the tracing overhead.
		r, err := runRep(sc, traces[0], cfg.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		checked = append(checked, r)
		vectors[0] = r.vector
		tr = newTracer()
	}
	var reps []*rep
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for {
		k := len(reps) % len(traces)
		r, err := runRep(sc, traces[k], traceSeed(cfg.seed, k), tr)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
		checked = append(checked, r)
		fmt.Fprintf(log, "# rep %d (trace %d): setup %.3fs, %d ops at %.1f ops/s, residue scan %.3fs, outcomes %s\n",
			len(reps), k, r.tt.setup.Seconds(), len(traces[k]), r.opsPerSec, r.tt.residue.Seconds(), r.vector)
		switch {
		case vectors[k] == "":
			vectors[k] = r.vector
		case r.vector != vectors[k]:
			// A replay of the same trace must decide every op the same way.
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("rep %d decided trace %d differently: %s", len(reps), k, r.vector))
		}
		if len(reps) < len(traces) || time.Now().Before(deadline) {
			continue
		}
		// A seed whose traces hold few ops of a class gets another
		// repetition rather than a percentile read off too few samples.
		if err := enoughSamples(reps, tr); err == nil || !errors.Is(err, errTooFewSamples) || len(reps) >= maxReps {
			break
		}
	}
	md.Reps = len(reps)

	res := &result{Metrics: make(map[string]metric)}
	for _, r := range checked {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintf(log, "# problem: %s\n", p)
		}
	}

	if cfg.traced {
		m, err := tr.layerMetrics()
		if err != nil {
			return nil, nil, err
		}
		untraced := checked[0].opsPerSec
		m["trace.untraced_ops_per_s"] = untraced
		m["trace.overhead_pct"] = 100 * (1 - ratio(reps[0].opsPerSec, untraced))
		for name, v := range m {
			res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
		}
		if cfg.root != "" {
			dir := filepath.Join(cfg.root, ".bench_build", "spans")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.def.name, cfg.seed))
			if err := tr.writeSpans(path); err != nil {
				return nil, nil, fmt.Errorf("write spans: %w", err)
			}
		}
	} else {
		m, err := endToEnd(reps)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = m
	}
	res.Correct = res.Failed == 0
	for k, v := range vectors {
		fmt.Fprintf(log, "# outcomes trace %d (seed %d): %s\n", k, traceSeed(cfg.seed, k), v)
	}
	return res, md, nil
}

// endToEnd folds the untraced repetitions into the end-to-end metrics.
// Latency samples are pooled across repetitions; per-repetition figures
// (set-up, residue scan, heap) are reported as medians.
func endToEnd(reps []*rep) (map[string]metric, error) {
	var inserts, queries []time.Duration
	var setup, residue, heap []float64
	for _, r := range reps {
		inserts = append(inserts, r.tt.inserts...)
		queries = append(queries, r.tt.queries...)
		setup = append(setup, r.tt.setup.Seconds())
		residue = append(residue, r.tt.residue.Seconds())
		heap = append(heap, r.heapMB)
	}
	insertP50, err := percentile(inserts, 0.50)
	if err != nil {
		return nil, fmt.Errorf("insert_p50_us: %w", err)
	}
	queryP50, err := percentile(queries, 0.50)
	if err != nil {
		return nil, fmt.Errorf("query_p50_us: %w", err)
	}
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"insert_p50_us":  {us(insertP50), "us"},
		"query_p50_us":   {us(queryP50), "us"},
		"residue_scan_s": {median(residue), "s"},
		"heap_mb":        {median(heap), "MiB"},
	}, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	base := name
	for _, c := range layerClasses {
		base = strings.TrimSuffix(base, "."+c.String())
	}
	switch {
	case strings.HasSuffix(base, "_ms"):
		return "ms"
	case strings.Contains(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "ns_per_block"):
		return "ns/block"
	case strings.HasSuffix(base, "bytes_per_op"), strings.HasSuffix(base, "bytes_written_per_op"):
		return "bytes/op"
	case strings.HasSuffix(base, "_per_op"):
		return "count/op"
	case strings.HasSuffix(base, "ops_per_s"):
		return "ops/s"
	case strings.HasSuffix(base, "_pct"):
		return "%"
	case strings.HasSuffix(base, "_ratio"):
		return "ratio"
	}
	return "count"
}

// commitOf names the code under test: the VCS revision the binary was
// built from, or else a digest of go.mod and every Go file under
// internal/ (a checkout without .git has no revision to stamp).
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if root == "" {
		return "unknown"
	}
	var files []string
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rgpdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("rgpdbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: clinic, audit or breach")
	seed := fl.Uint64("seed", 1, "trace and vault seed")
	seconds := fl.Int("seconds", 10, "measure at least this many seconds, replaying each of the workload's traces at least once")
	trace := fl.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	root := fl.String("root", "", "repository root; a traced run writes its spans under .bench_build/ there")
	if err := fl.Parse(args); err != nil {
		return err
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want clinic, audit or breach)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg := config{def: def, seed: *seed, seconds: *seconds, traced: *trace == 1, root: *root}
	res, md, err := bench(cfg, stdout)
	if err != nil {
		return err
	}
	metaLine, err := json.Marshal(md)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# meta %s\n", metaLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
