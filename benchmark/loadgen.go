package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator and the latency statistics live here rather than in
// internal/load and internal/hist, so a change to those cannot change what
// the benchmark measures. Latencies are kept raw (one int64 per request)
// and quantiles are exact order statistics.

// quantile returns the nearest-rank q-quantile of sorted ns.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	c := append([]int64(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func medianInt(v []int64) int64 { return quantile(sortedCopy(v), 0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func sumInt(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// windowedP99 splits v (in request order) into equal windows and returns
// the median of the per-window p99 — robust to one noisy-neighbour burst —
// and the samples per window. There are p99Windows windows when each then
// holds at least minWindow samples (ten beyond its p99), fewer otherwise,
// down to the whole of v as one.
func windowedP99(v []int64) (int64, int) {
	const minWindow = 1000
	windows := len(v) / minWindow
	if windows > p99Windows {
		windows = p99Windows
	}
	if windows < 1 {
		windows = 1
	}
	w := len(v) / windows
	p99s := make([]int64, 0, windows)
	for i := 0; i < windows; i++ {
		p99s = append(p99s, quantile(sortedCopy(v[i*w:(i+1)*w]), 0.99))
	}
	return medianInt(p99s), w
}

// phaseLog is what one load phase recorded, indexed by request number
// within the phase.
type phaseLog struct {
	name  string
	first int // request index of the phase's first request in the plan
	start time.Time
	wall  time.Duration
	// startNS is when each request was due (open loop) or issued (closed
	// loop), relative to start; latNS its latency from then to completion,
	// or -1 if it failed; lateNS how far behind schedule it was dispatched.
	startNS []int64
	latNS   []int64
	lateNS  []int64
	failed  int64
	dropped int64
}

// open reports whether the segment is an open-loop one.
func (lg *phaseLog) open() bool { return lg.name == "open_loop" }

func newPhaseLog(name string, first, n int) *phaseLog {
	return &phaseLog{name: name, first: first, startNS: make([]int64, n), latNS: make([]int64, n), lateNS: make([]int64, n)}
}

// runClosed drives n requests through callers goroutines, each sending its
// next request only when the previous one completed.
func runClosed(lg *phaseLog, callers int, do func(i int) error) {
	n := len(lg.latNS)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	lg.start = time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				err := do(lg.first + i)
				lg.startNS[i] = int64(t0.Sub(lg.start))
				lg.latNS[i] = int64(time.Since(t0))
				if err != nil {
					lg.latNS[i] = -1
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	lg.wall = time.Since(lg.start)
	lg.failed = failed.Load()
}

// runOpen sends n requests at Poisson arrivals of the given rate, whatever
// the system's progress, timing each from when it was due. An arrival that
// finds inflightCap requests outstanding is dropped and counted.
func runOpen(lg *phaseLog, rate float64, arrivals *rng, do func(i int) error) {
	n := len(lg.latNS)
	var inflight, failed atomic.Int64
	var wg sync.WaitGroup
	lg.start = time.Now()
	var due time.Duration
	for i := 0; i < n; i++ {
		due += time.Duration(arrivals.exp() / rate * float64(time.Second))
		// The dispatcher only ever sleeps. Yielding the processor until
		// the arrival is due was tried: on two cores shared with the system
		// under test it doubled read_p99_ms and still ran 1.4 ms late at p99.
		if wait := due - time.Since(lg.start); wait > 0 {
			time.Sleep(wait)
		}
		lg.startNS[i] = int64(due)
		lg.lateNS[i] = int64(time.Since(lg.start) - due)
		if inflight.Load() >= inflightCap {
			lg.latNS[i] = -1
			lg.dropped++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			err := do(lg.first + i)
			lg.latNS[i] = int64(time.Since(lg.start) - due)
			if err != nil {
				lg.latNS[i] = -1
				failed.Add(1)
			}
			inflight.Add(-1)
		}(i, due)
	}
	wg.Wait()
	lg.wall = time.Since(lg.start)
	lg.failed = failed.Load()
}

// latencies returns the phase's successful latencies in request order for
// the requests keep selects.
func (lg *phaseLog) latencies(keep func(i int) bool) []int64 {
	out := make([]int64, 0, len(lg.latNS))
	for i, l := range lg.latNS {
		if l >= 0 && keep(lg.first+i) {
			out = append(out, l)
		}
	}
	return out
}
