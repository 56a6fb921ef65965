package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// phaseCount is a measured phase's request accounting.
type phaseCount struct {
	Name      string  `json:"name"`
	Attempted int64   `json:"attempted"`
	Succeeded int64   `json:"succeeded"`
	Failed    int64   `json:"failed"`
	WallS     float64 `json:"wall_s"`
}

// budgetRow is one line of the per-workload budget table: how much of the
// request p50 a layer accounts for.
type budgetRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// passResult is what one pass (scored or traced) of one workload measured.
type passResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Valid is false when the numbers must not be scored: the generator ran
	// late or dropped arrivals, or another process held the CPU.
	Valid         bool     `json:"valid"`
	InvalidReason string   `json:"invalid_reason,omitempty"`
	Correct       bool     `json:"correct"`
	OracleErrors  []string `json:"oracle_errors,omitempty"`
	OracleChecks  int      `json:"oracle_checks"`
	Attempted     int64    `json:"attempted"`
	Failed        int64    `json:"failed"`

	Phases []phaseCount      `json:"phases"`
	Metric map[string]metric `json:"metrics"`
	// PimCounts are the metered counts per phase (tree_batch only). Except
	// for the few that orderDependent names, any difference between two runs
	// of one commit and seed is a failure.
	PimCounts map[string]int64 `json:"pim_counts,omitempty"`
	Budget    []budgetRow      `json:"budget,omitempty"`
	Ladder    []ladderRung     `json:"ladder,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func newPassResult(name string, traced bool) *passResult {
	return &passResult{Workload: name, Traced: traced, Valid: true, Correct: true, Metric: map[string]metric{}}
}

// set records a metric under its table name; the unit comes from the table
// so a name can never be printed with two units.
func (r *passResult) set(name string, value float64, samples int) {
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	r.Metric[name] = metric{Value: value, Unit: def.Unit, Samples: samples}
}

func (r *passResult) oracleFail(err error) {
	if err == nil {
		return
	}
	r.Correct = false
	if len(r.OracleErrors) < 8 {
		r.OracleErrors = append(r.OracleErrors, err.Error())
	}
}

func (r *passResult) invalidate(reason string) {
	if r.Valid {
		r.Valid = false
		r.InvalidReason = reason
	}
}

// fill gives every metric of the list a value, zero where the workload has
// no such layer — "persist.* is zero outside serve_durable_write" is then a
// statement the output makes, not an absence.
func (r *passResult) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metric[d.Name]; !ok {
			r.Metric[d.Name] = metric{Unit: d.Unit}
		}
	}
}

// provenance says where and when the numbers were taken.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Start      string `json:"start"`
	End        string `json:"end"`
}

// runFile is the JSON the benchmark writes with -out.
type runFile struct {
	Schema     string         `json:"schema"`
	Provenance provenance     `json:"provenance"`
	Constants  map[string]any `json:"constants"`
	Passes     []*passResult  `json:"passes"`
}

const runSchema = "pimkd-benchmark/v1"

// find returns the pass of a workload, scored or traced.
func (f *runFile) find(workload string, traced bool) *passResult {
	for _, p := range f.Passes {
		if p.Workload == workload && p.Traced == traced {
			return p
		}
	}
	return nil
}

func printPass(w io.Writer, r *passResult) {
	kind := "scored pass (tracing off)"
	if r.Traced {
		kind = "traced pass"
	}
	fmt.Fprintf(w, "\n== %s — %s ==\n", r.Workload, kind)
	fmt.Fprintf(w, "valid=%v correct=%v attempted=%d failed=%d oracle_checks=%d\n", r.Valid, r.Correct, r.Attempted, r.Failed, r.OracleChecks)
	if !r.Valid {
		fmt.Fprintf(w, "INVALID: %s\n", r.InvalidReason)
	}
	for _, e := range r.OracleErrors {
		fmt.Fprintf(w, "ORACLE: %s\n", e)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-18s attempted=%-8d ok=%-8d failed=%-4d wall=%.3fs\n", p.Name, p.Attempted, p.Succeeded, p.Failed, p.WallS)
	}
	printMetrics := func(title string, defs []metricDef) {
		var names []string
		for _, d := range defs {
			if _, ok := r.Metric[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, n := range names {
			m := r.Metric[n]
			samples := ""
			if m.Samples > 0 {
				samples = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Fprintf(w, "    %-30s %16.6g %-6s%s\n", n, m.Value, m.Unit, samples)
		}
	}
	if !r.Traced {
		printMetrics("end-to-end:", gatedMetrics)
	}
	printMetrics("per-layer:", layerMetrics)
	if len(r.PimCounts) > 0 {
		keys := make([]string, 0, len(r.PimCounts))
		for k := range r.PimCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  metered pim counts, exact unless marked ~ (goroutine-order dependent): ")
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			mark := ""
			if orderDependent(k) {
				mark = "~"
			}
			fmt.Fprintf(w, "%s%s=%d", mark, k, r.PimCounts[k])
		}
		fmt.Fprintln(w)
	}
	if len(r.Ladder) > 0 {
		printLadder(w, r.Ladder)
	}
	if len(r.Budget) > 0 {
		printBudget(w, r)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func printBudget(w io.Writer, r *passResult) {
	fmt.Fprintf(w, "  budget of the request p50 (%s):\n", r.Workload)
	for _, b := range r.Budget {
		bar := ""
		if b.Share > 0 && b.Share <= 1 {
			bar = strings.Repeat("#", int(b.Share*40+0.5))
		}
		fmt.Fprintf(w, "    %-22s %9.3f ms %6.1f%%  %s\n", b.Layer, b.MS, 100*b.Share, bar)
	}
}
