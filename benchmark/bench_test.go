package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pimkd/internal/core"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTable: the names, units, directions and bounds in
// BENCHMARK.json are exactly the benchmark's own table.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the constants are calibrated for %d", b.RunSeconds, refSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var got []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads = %v, want %v", got, workloadNames)
	}

	check := func(list string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s has %d metrics, the table has %d", list, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unit)
			}
			better := "lower"
			if w.Higher {
				better = "higher"
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != better {
				t.Errorf("%s[%d] = %+v, the table has %s %s %s", list, i, g, w.Name, w.Unit, better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the table has %v (and the limit is 0.25)", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, gatedMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// quickRun is one full quick report (every workload scored, then traced),
// shared by the tests that read it.
var quickRun = sync.OnceValue(func() *runFile {
	dir, err := os.MkdirTemp("", "pimkd-benchmark-test-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	return runAll(runConfig{seed: 1, seconds: 1, quick: true, runDir: dir, traceDir: filepath.Join(dir, "traces"), log: io.Discard})
})

// TestQuickRun: every workload runs at toy size, every oracle passes, and
// what comes out carries exactly BENCHMARK.json's names.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	b := readBenchmarkJSON(t)
	file := quickRun()
	if len(file.Passes) != 2*len(workloadNames) {
		t.Fatalf("%d passes, want %d", len(file.Passes), 2*len(workloadNames))
	}
	for _, p := range file.Passes {
		if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", p.Workload, p.Traced, p.Correct, p.Failed, p.Attempted, p.OracleErrors)
		}
		if p.OracleChecks == 0 {
			t.Errorf("%s traced=%v: no oracle check ran", p.Workload, p.Traced)
		}
		line := driverResult(p)
		want := b.EndToEnd
		if p.Traced {
			want = b.PerLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics on the result line, BENCHMARK.json lists %d", p.Workload, p.Traced, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s %s missing from the result line (got %+v)", p.Workload, p.Traced, m.Name, m.Unit, got)
			}
			if !p.Traced && (got.Value <= 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", p.Workload, m.Name, got.Value)
			}
		}
		if p.Traced {
			if p.TraceFile == "" {
				t.Errorf("%s: the traced pass wrote no span file", p.Workload)
			}
			if len(p.Budget) == 0 {
				t.Errorf("%s: the traced pass has no budget table", p.Workload)
			}
		}
	}

	// The layer → workload predictions: a layer a workload bypasses does no
	// work there.
	owner := map[string]string{"persist.": "serve_durable_write", "shard.": "cluster_mixed"}
	for _, p := range file.Passes {
		for name, m := range p.Metric {
			for prefix, only := range owner {
				if strings.HasPrefix(name, prefix) && p.Workload != only && m.Value != 0 {
					t.Errorf("%s: %s = %v, but only %s uses that layer", p.Workload, name, m.Value, only)
				}
			}
			if strings.HasPrefix(name, "serve.") && p.Workload == "tree_batch" && m.Value != 0 {
				t.Errorf("tree_batch: %s = %v, but it runs no service", name, m.Value)
			}
		}
	}
	for _, name := range []string{"persist.appends", "persist.syncs", "persist.checkpoints"} {
		if file.find("serve_durable_write", false).Metric[name].Value == 0 {
			t.Errorf("serve_durable_write: %s is zero", name)
		}
	}
	cluster := file.find("cluster_mixed", true)
	for _, name := range []string{"shard.calls_per_op", "shard.wire_bytes_per_read", "shard.encode_ns", "shard.router_overhead_us_c64", "serve.overhead_us_c1"} {
		if cluster.Metric[name].Value == 0 {
			t.Errorf("cluster_mixed traced: %s is zero", name)
		}
	}
	if len(cluster.Ladder) != 10 {
		t.Errorf("cluster_mixed: the ladder has %d rungs, want 5 boundaries x 2 kinds", len(cluster.Ladder))
	}
}

// TestTreeBatchCountsRepeat: two tree_batch passes of one seed meter
// identical pim counts — the property that lets a later change be checked
// for bit-identical model cost.
func TestTreeBatchCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tree_batch")
	}
	exact := func(counts map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range counts {
			if !orderDependent(k) {
				out[k] = v
			}
		}
		return out
	}
	first := exact(quickRun().find("tree_batch", false).PimCounts)
	c := runConfig{seed: 1, seconds: 1, quick: true, runDir: t.TempDir(), log: io.Discard}
	second := exact(runPass(c, "tree_batch", false).PimCounts)
	if len(first) < 20 || !reflect.DeepEqual(first, second) {
		t.Errorf("exact pim counts differ between two runs of one seed:\n first %v\nsecond %v", first, second)
	}
	c.seed = 2
	if other := exact(runPass(c, "tree_batch", false).PimCounts); reflect.DeepEqual(first, other) {
		t.Error("a different seed metered the same counts: the seed does not reach the inputs")
	}
}

// TestInputsRepeat: the same seed generates byte-identical inputs.
func TestInputsRepeat(t *testing.T) {
	a := newInputs(7, quickN).digest(3, 5000)
	b := newInputs(7, quickN).digest(3, 5000)
	c := newInputs(8, quickN).digest(3, 5000)
	if a != b {
		t.Errorf("seed 7 generated two different inputs: %x and %x", a, b)
	}
	if a == c {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
}

// TestPlanDeletesFollowInserts: a delete never targets an insert that comes
// later in the plan, and the frozen mixes never rewrite a delete.
func TestPlanDeletesFollowInserts(t *testing.T) {
	for name, spec := range servingSpecs {
		in := newInputs(3, quickN)
		if spec.mix[kindDelete] > 0 {
			in.stable = in.n - 512
		}
		pool := in.n - in.stable
		plan := in.plan(spec.mix, 20000)
		inserts, counts := 0, [numKinds]int{}
		for i, k := range plan.kinds {
			counts[k]++
			if k == kindInsert {
				inserts++
			}
			if k == kindDelete && int(plan.target[i]) >= pool+inserts {
				t.Fatalf("%s: request %d deletes FIFO position %d before it was inserted", name, i, plan.target[i])
			}
		}
		for k, pct := range spec.mix {
			if got := 100 * float64(counts[k]) / 20000; math.Abs(got-float64(pct)) > 2 {
				t.Errorf("%s: %s is %.1f%% of the plan, the mix says %d%%", name, kindNames[k], got, pct)
			}
		}
	}
}

// TestOracle: the brute-force oracle accepts its own answers
// and rejects a perturbed one.
func TestOracle(t *testing.T) {
	in := newInputs(5, 2000)
	q := in.knnQueries(0, 1)[0]
	want := in.knn(q, knnK, in.n)
	if err := in.checkKNNExact(q, want, false); err != nil {
		t.Errorf("oracle rejected its own answer: %v", err)
	}
	bad := append([]neighbour(nil), want...)
	bad[3].id++
	if err := in.checkKNNExact(q, bad, false); err == nil {
		t.Error("oracle accepted a wrong neighbour")
	}
	box := in.rangeBoxes(0, 1)[0]
	var items []core.Item
	for _, id := range in.inBox(box, in.n) {
		items = append(items, core.Item{P: in.point(int(id)), ID: id})
	}
	if err := in.checkRange(box, items, in.n, nil); err != nil {
		t.Errorf("oracle rejected its own range answer: %v", err)
	}
	if len(items) > 0 {
		if err := in.checkRange(box, items[1:], in.n, nil); err == nil {
			t.Error("oracle accepted a range answer with an item missing")
		}
	}
}

// TestSpreadMatchesPython: spread is statistics.quantiles(v, n=4), exclusive
// method: for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Three values: Python extrapolates the third quartile past the maximum.
	if got, want := spread([]float64{10, 11, 13}), (13.0-10)/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}

// TestCompareVerdicts: -compare passes a run against itself and flags a
// throughput that fell past its bound and a drifted exact count.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, knn float64, rounds int64) string {
		p := newPassResult("tree_batch", false)
		p.set("knn_q_per_s", knn, 100)
		p.PimCounts = map[string]int64{"knn.rounds": rounds}
		f := &runFile{Schema: runSchema, Provenance: provenance{Seed: 1, Seconds: 20}, Passes: []*passResult{p}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 200000, 800)
	var out bytes.Buffer
	if code := runCompare(&out, base, base); code != 0 || !strings.Contains(out.String(), "PASS") {
		t.Errorf("a run against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, mk("slow.json", 130000, 800)); code != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 35%% slower knn_q_per_s: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, base, mk("drift.json", 200000, 801)); code != 1 || !strings.Contains(out.String(), "DRIFT") {
		t.Errorf("a drifted round count: exit %d\n%s", code, out.String())
	}
}
