// Command benchmark is the regression benchmark for the whole stack: four
// workloads that stress different layers (core+pim, serve, persist, shard),
// a fixed set of named end-to-end metrics with regression bounds, per-layer
// metrics measured from outside through the hooks each layer exports, a
// traced pass with a layer ladder, and oracle checks on every answer.
//
//	go run ./benchmark -seed 1 -out run.json          # all workloads, scored then traced
//	go run ./benchmark -quick -seed 1                 # toy sizes, never scored
//	go run ./benchmark -compare old.json new.json     # PASS / REGRESSED / UNRESOLVED per metric
//	go run ./benchmark --workload serve_read --seed 7 --seconds 20 --trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload, one
// pass, and a final stdout line of JSON with the metrics of that pass.
// README.md in this directory says what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's result line (default: all four, full report)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", refSeconds, "run length the operation counts are scaled to")
		trace    = flag.Int("trace", 0, "with -workload: 0 = scored pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		out      = flag.String("out", "", "write the run's JSON here")
		traceDir = flag.String("trace-dir", "", "write the traced pass's span files (Perfetto JSON) here; default <out>.traces with -out")
		quick    = flag.Bool("quick", false, "toy sizes for a smoke run in seconds; the numbers are never scored")
		compare  = flag.Bool("compare", false, "compare two runs (files or directories of run JSON): -compare old new")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare <old.json|dir> <new.json|dir>")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if *traceDir == "" && *out != "" && *workload == "" {
		*traceDir = strings.TrimSuffix(*out, ".json") + ".traces"
	}

	runDir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		fatal("scratch directory: %v", err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, runDir: runDir, traceDir: *traceDir, log: os.Stderr}

	var file *runFile
	if *workload == "" {
		cfg.log = os.Stdout
		file = runAll(cfg)
	} else {
		if !knownWorkload(*workload) {
			os.RemoveAll(runDir)
			fatal("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
		}
		file = newRunFile(cfg)
		file.Passes = append(file.Passes, runPass(cfg, *workload, *trace == 1))
		file.Provenance.End = time.Now().UTC().Format(time.RFC3339)
	}
	os.RemoveAll(runDir)

	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatal("writing %s: %v", *out, err)
		}
	}
	ok := true
	for _, p := range file.Passes {
		ok = ok && p.Correct && p.Failed == 0
	}
	if *workload != "" {
		// The driver's contract: one JSON object as the last stdout line. A
		// pass that failed its oracle prints correct=false; set-up failures
		// exit non-zero without a result.
		b, err := json.Marshal(driverResult(file.Passes[0]))
		if err != nil {
			fatal("encoding result: %v", err)
		}
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverResult is the pass as the driver wants it: every end-to-end metric
// from a scored pass, every per-layer metric from a traced one.
func driverResult(p *passResult) driverLine {
	defs := gatedMetrics
	if p.Traced {
		defs = layerMetrics
	}
	line := driverLine{Correct: p.Correct, Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverMetric{Value: p.Metric[d.Name].Value, Unit: d.Unit}
	}
	return line
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

type runConfig struct {
	seed     uint64
	seconds  int
	quick    bool
	runDir   string
	traceDir string
	log      io.Writer
}

// sizesFor resolves a pass's sizes. The scored pass sets up several times
// and reports the median; the traced pass runs a third of the operations.
func (c runConfig) sizesFor(traced bool) sizes {
	s := sizes{n: fullN, setups: 9, scale: 1, seconds: float64(c.seconds)}
	if c.quick {
		s.n, s.setups, s.seconds = quickN, 1, 1
	}
	if traced {
		s.setups, s.scale = 1, 1.0/3
	}
	return s
}

var workloadFuncs = map[string]func(*env) *passResult{
	"tree_batch":          runTreeBatch,
	"serve_read":          runServeRead,
	"serve_durable_write": runServeDurableWrite,
	"cluster_mixed":       runClusterMixed,
}

// runPass runs one pass of one workload. A traced driver pass first runs
// the same reduced pass untraced, for trace.overhead_share.
func runPass(c runConfig, name string, traced bool) *passResult {
	e := &env{seed: c.seed, sz: c.sizesFor(traced), runDir: c.runDir}
	if !traced {
		res := workloadFuncs[name](e)
		res.fill(gatedMetrics)
		res.fill(layerMetrics)
		printPass(c.log, res)
		return res
	}
	// Both passes start from a heap returned to the OS, so the second does
	// not run on pages the first already faulted in.
	debug.FreeOSMemory()
	ref := workloadFuncs[name](e)
	debug.FreeOSMemory()
	e.tr = newTracer()
	res := workloadFuncs[name](e)
	headline := "capacity_rps"
	if name == "tree_batch" {
		headline = "knn_q_per_s"
	}
	if base := ref.Metric[headline].Value; base > 0 {
		res.set("trace.overhead_share", 1-res.Metric[headline].Value/base, 0)
	}
	if !ref.Correct || ref.Failed > 0 {
		res.Correct = res.Correct && ref.Correct
		res.Failed += ref.Failed
		res.OracleErrors = append(res.OracleErrors, ref.OracleErrors...)
	}
	if c.traceDir != "" {
		if err := os.MkdirAll(c.traceDir, 0o755); err == nil {
			path := filepath.Join(c.traceDir, name+".trace.json")
			if err := e.tr.write(path); err != nil {
				res.Notes = append(res.Notes, "span file: "+err.Error())
			} else {
				res.TraceFile = path
			}
		}
	}
	res.fill(layerMetrics)
	printPass(c.log, res)
	return res
}

// runAll is the full report: every workload scored with tracing off, then
// every workload traced.
func runAll(c runConfig) *runFile {
	file := newRunFile(c)
	fmt.Fprintf(c.log, "pimkd benchmark — seed %d, seconds %d, quick %v, GOMAXPROCS %d, commit %s\n",
		c.seed, c.seconds, c.quick, runtime.GOMAXPROCS(0), file.Provenance.Commit)
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			runtime.GC()
			file.Passes = append(file.Passes, runPass(c, name, traced))
		}
	}
	file.Provenance.End = time.Now().UTC().Format(time.RFC3339)
	fmt.Fprintf(c.log, "\n== budget tables ==\n")
	for _, p := range file.Passes {
		if p.Traced && len(p.Budget) > 0 {
			printBudget(c.log, p)
		}
	}
	return file
}

func newRunFile(c runConfig) *runFile {
	consts := map[string]any{
		"dim": dim, "modules_p": modulesP, "cache_words": cacheWords, "leaf_size": leafSize, "knn_k": knnK,
		"max_batch": maxBatch, "max_linger_ms": maxLinger.Seconds() * 1000, "replication": replication, "cluster_shards": clusterSize,
		"n": c.sizesFor(false).n, "primed_pool": primedPool,
		"knn_batch": knnBatch, "range_batch": rangeBatch, "churn_batch": churnBatch, "range_side": rangeSide,
		"closed_loop_callers": closedCallers, "inflight_cap": inflightCap, "late_limit_ms": lateLimitMS,
		"tree_batch_per_second": treeSizes, "setups_per_scored_pass": c.sizesFor(false).setups,
	}
	for name, s := range servingSpecs {
		consts[name] = map[string]any{
			"mix_percent":             map[string]int{"knn": s.mix[kindKNN], "range": s.mix[kindRange], "lookup": s.mix[kindLookup], "insert": s.mix[kindInsert], "delete": s.mix[kindDelete]},
			"closed_loop_requests":    c.sizesFor(false).count(s.closedPerS, 2*closedCallers),
			"open_loop_rate_per_s":    s.openRate,
			"open_loop_requests":      c.sizesFor(false).count(s.openRate*s.openSeconds, 1000),
			"open_loop_seconds_share": s.openSeconds,
		}
	}
	return &runFile{
		Schema: runSchema,
		Provenance: provenance{
			Commit: commitHash(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: c.seed, Seconds: c.seconds, Quick: c.quick, Start: time.Now().UTC().Format(time.RFC3339),
		},
		Constants: consts,
	}
}

// commitHash asks git; the driver's checkout is not a repository, and then
// the answer is "unknown".
func commitHash() string {
	outb, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
