package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"

	"pimkd/internal/pim"
)

// MeteredTotals is the pim.Stats shape summed over every BSP round an
// experiment executed (CPUPhase calls outside rounds are not attributed to
// rounds and hence not included — the wall-clock fields carry those).
type MeteredTotals struct {
	CPUWork       int64 `json:"cpu_work"`
	CPUSpan       int64 `json:"cpu_span"`
	PIMWork       int64 `json:"pim_work"`
	PIMTime       int64 `json:"pim_time"`
	Communication int64 `json:"communication"`
	CommTime      int64 `json:"comm_time"`
	Rounds        int64 `json:"rounds"`
}

// Result is one experiment's row in a BENCH_*.json capture.
type Result struct {
	ID       string `json:"id"`
	Artifact string `json:"artifact"`
	// WallNs is the experiment's wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// AllocBytes and Mallocs are the heap growth and allocation count over
	// the experiment (runtime.MemStats deltas).
	AllocBytes int64 `json:"alloc_bytes"`
	Mallocs    int64 `json:"mallocs"`
	// Metered sums the simulator's per-round costs — the determinism
	// oracle: these totals must be identical at every GOMAXPROCS.
	Metered MeteredTotals `json:"metered"`
	// Metrics carries named scalars outside the metered totals; the
	// pimkd-load record fills it with its latency and outcome summary.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// RunRecord is the top-level BENCH_*.json document: one harness invocation.
type RunRecord struct {
	Schema      string    `json:"schema"`
	Date        time.Time `json:"date"`
	GoVersion   string    `json:"go_version"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"num_cpu"`
	Quick       bool      `json:"quick"`
	Experiments []Result  `json:"experiments"`
}

// roundSummer is a pim.Observer that accumulates every observed round into
// MeteredTotals and forwards each record to an optional next observer (the
// -trace tracer), so JSON capture and tracing compose.
type roundSummer struct {
	mu     sync.Mutex
	totals MeteredTotals
	next   pim.Observer
}

func (s *roundSummer) ObserveRound(rec pim.RoundRecord) {
	s.mu.Lock()
	s.totals.CPUWork += rec.CPUWork
	s.totals.CPUSpan += rec.CPUSpan
	s.totals.PIMWork += rec.TotalWork
	s.totals.PIMTime += rec.MaxWork
	s.totals.Communication += rec.TotalComm
	s.totals.CommTime += rec.MaxComm
	s.totals.Rounds++
	s.mu.Unlock()
	if s.next != nil {
		s.next.ObserveRound(rec)
	}
}

func (s *roundSummer) snapshot() MeteredTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// RunAllCollect executes the selected experiments (all when ids is empty)
// like RunAll, additionally collecting per-experiment wall time, allocation
// deltas, and metered round totals into a RunRecord.
// base, when non-nil, keeps receiving every round record (pass the -trace
// tracer); the process-default observer is restored to base on return.
func RunAllCollect(w io.Writer, ids []string, quick bool, base pim.Observer) (*RunRecord, error) {
	selected, err := Select(ids)
	if err != nil {
		return nil, err
	}
	rec := &RunRecord{
		Schema:     "pimkd-bench/v1",
		Date:       time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
	}
	defer pim.SetDefaultObserver(base)
	for _, e := range selected {
		summer := &roundSummer{next: base}
		pim.SetDefaultObserver(summer)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		runOne(w, e, quick)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)

		rec.Experiments = append(rec.Experiments, Result{
			ID:         e.ID,
			Artifact:   e.Artifact,
			WallNs:     wall.Nanoseconds(),
			AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
			Mallocs:    int64(after.Mallocs - before.Mallocs),
			Metered:    summer.snapshot(),
		})
	}
	return rec, nil
}

// WriteJSON writes the run record as indented JSON.
func (r *RunRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
