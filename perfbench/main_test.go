package main

// Self-tests of the benchmark at tiny scale: a few dozen subjects and a
// few simulated seconds of traffic against real booted systems.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/workload"
)

var tiny = workloadDef{name: "tiny", scenario: "breach-response", subjects: 40, duration: 8 * time.Second, traces: 1}

func tinyTrace(t *testing.T, seed uint64) (workload.Scenario, []workload.Op) {
	t.Helper()
	sc, err := scenarioFor(tiny)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := workload.Generate(sc.Mix, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc, ops
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Microsecond // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		q      float64
		refuse int // largest sample count refused
	}{{0.50, 19}, {0.75, 39}, {0.90, 99}, {0.99, 999}} {
		if _, err := percentile(ramp(tc.refuse), tc.q); !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err = %v, want errTooFewSamples", tc.q*100, tc.refuse, err)
		}
		if _, err := percentile(ramp(tc.refuse+1), tc.q); err != nil {
			t.Errorf("p%g of %d samples: %v", tc.q*100, tc.refuse+1, err)
		}
	}
	if v, err := percentile(ramp(100), 0.90); err != nil || v != 90*time.Microsecond {
		t.Errorf("p90 of 1..100us = %v, %v; want 90us", v, err)
	}
}

// benchmarkNames reads the metric names and units BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func checkNames(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for name, m := range got {
		names = append(names, name)
		if !valid.MatchString(name) {
			t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s metric %q is emitted but not declared in BENCHMARK.json", kind, name)
		} else if unit != m.Unit {
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s metric %q is declared in BENCHMARK.json but not emitted", kind, name)
		}
	}
	sort.Strings(names)
	t.Logf("%s metrics: %v", kind, names)
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2eWant, layerWant := benchmarkNames(t)

	// End to end: enough synthetic samples for every percentile.
	tt := &timedTarget{setup: time.Second, residue: time.Second}
	for i := 0; i < 2000; i++ {
		tt.inserts = append(tt.inserts, time.Duration(i+1)*time.Microsecond)
		tt.queries = append(tt.queries, time.Duration(i+1)*time.Microsecond)
	}
	e2e, err := endToEnd([]*rep{{tt: tt, heapMB: 1}})
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, "end-to-end", e2e, e2eWant)

	// Per layer: one real traced rep, its two sample-hungry percentiles
	// padded so the tiny trace can report them.
	sc, ops := tinyTrace(t, 3)
	tr := newTracer()
	if _, err := runRep(sc, ops, 3, tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tr.layers["ps.Invoke"] = append(tr.layers["ps.Invoke"], time.Millisecond)
		tr.seedInserts = append(tr.seedInserts, time.Millisecond)
	}
	vals, err := tr.layerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	vals["trace.untraced_ops_per_s"], vals["trace.overhead_pct"] = 1, 0
	layer := make(map[string]metric, len(vals))
	for name, v := range vals {
		layer[name] = metric{Value: v, Unit: layerUnit(name)}
	}
	checkNames(t, "per-layer", layer, layerWant)
}

func TestSeedInsertsCountAsSetup(t *testing.T) {
	sc, ops := tinyTrace(t, 5)
	r, err := runRep(sc, ops, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("tiny rep failed %d checks: %v", r.failed, r.problems)
	}
	if got := len(r.tt.seedInserts); got != sc.Mix.Subjects {
		t.Errorf("seed inserts timed as set-up: %d, want one per subject (%d)", got, sc.Mix.Subjects)
	}
	inserts := 0
	for _, op := range ops {
		if op.Class == workload.ClassInsert {
			inserts++
		}
	}
	if got := len(r.tt.inserts); got != inserts {
		t.Errorf("insert_* samples = %d, want the trace's %d insert ops and no seed insert", got, inserts)
	}
	var seeding time.Duration
	for _, d := range r.tt.seedInserts {
		seeding += d
	}
	if r.tt.setup < seeding {
		t.Errorf("setup %v is shorter than the seed inserts it contains (%v)", r.tt.setup, seeding)
	}
}

func TestSeedDeterminesTraceAndOutcomes(t *testing.T) {
	sc, a := tinyTrace(t, 7)
	_, b := tinyTrace(t, 7)
	_, c := tinyTrace(t, 8)
	if !bytes.Equal(workload.EncodeTrace(a), workload.EncodeTrace(b)) {
		t.Fatal("same seed generated different traces")
	}
	if bytes.Equal(workload.EncodeTrace(a), workload.EncodeTrace(c)) {
		t.Fatal("different seeds generated the same trace")
	}
	r1, err := runRep(sc, a, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runRep(sc, b, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.vector != r2.vector {
		t.Fatalf("same seed, different outcome vectors:\n%s\n%s", r1.vector, r2.vector)
	}
	if r1.failed != 0 {
		t.Fatalf("tiny rep failed %d checks: %v", r1.failed, r1.problems)
	}
}

func TestTracedSpansNestPerOp(t *testing.T) {
	sc, ops := tinyTrace(t, 9)
	tr := newTracer()
	if _, err := runRep(sc, ops, 9, tr); err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]span, len(tr.spans))
	roots := 0
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if want := len(ops) + (tiny.subjects+exportBatch-1)/exportBatch; roots != want {
		t.Errorf("%d root spans, want one per op (%d)", roots, want)
	}
	invokes, stages := 0, 0
	for _, s := range tr.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Fatalf("span %+v: parent missing or from another op", s)
		}
		switch {
		case s.Name == "ps.Invoke":
			invokes++
		case len(s.Name) > 4 && s.Name[:4] == "ded.":
			stages++
			if p.Name != "ps.Invoke" {
				t.Errorf("DED stage span %q under %q, want ps.Invoke", s.Name, p.Name)
			}
		}
	}
	if invokes == 0 || stages != 8*invokes {
		t.Errorf("%d DED stage spans for %d invokes, want 8 each", stages, invokes)
	}
}

func TestDeviceSizeIndependentOfSeed(t *testing.T) {
	for _, def := range workloads {
		sc, err := scenarioFor(def)
		if err != nil {
			t.Fatal(err)
		}
		var first [3]uint64
		for seed := uint64(1); seed <= 40; seed++ {
			ops, err := workload.Generate(sc.Mix, seed)
			if err != nil {
				t.Fatal(err)
			}
			var got [3]uint64
			got[0], got[1], got[2] = workload.BootSizing(sc.Mix, ops)
			if seed == 1 {
				first = got
			} else if got != first {
				t.Errorf("%s: seed %d sizes the machine %v, seed 1 %v", def.name, seed, got, first)
			}
		}
	}
}
