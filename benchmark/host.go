package main

import (
	"math"
	"runtime"
	"time"
)

// hostSnap is the process-wide state the host.* metrics and
// alloc_kb_per_op are deltas of.
type hostSnap struct {
	at         time.Time
	cpu        time.Duration // user + system, from rusage
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNS    uint64
}

func takeHost() hostSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostSnap{at: time.Now(), cpu: processCPU(), totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, pauseNS: m.PauseTotalNs}
}

// heapLiveMB is HeapAlloc after a forced collection: what set-up left
// reachable, the index plus the benchmark's own copy of the inputs. A
// cluster's background loops (probe, anti-entropy sweep) allocate while this
// runs — one reading in five caught tens of MB of a sweep's scratch — so it
// reads until two collections in a row agree and returns the smallest.
func heapLiveMB() float64 {
	var m runtime.MemStats
	best, prev := math.Inf(1), 0.0
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		cur := float64(m.HeapAlloc) / (1 << 20)
		best = math.Min(best, cur)
		if i > 0 && math.Abs(cur-prev) < 0.01*cur && cur < 1.01*best {
			break
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	return best
}

// hostMetrics records alloc_kb_per_op and the host.* metrics for the
// measured interval a..b over ops operations.
func (r *passResult) hostMetrics(a, b hostSnap, ops int64) {
	if ops <= 0 {
		return
	}
	r.set("alloc_kb_per_op", float64(b.totalAlloc-a.totalAlloc)/1024/float64(ops), int(ops))
	r.set("host.cpu_ms_per_kop", float64(b.cpu-a.cpu)/1e6/float64(ops)*1000, int(ops))
	r.set("host.mallocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), int(ops))
	r.set("host.gc_cycles", float64(b.numGC-a.numGC), 0)
	r.set("host.gc_pause_ms_total", float64(b.pauseNS-a.pauseNS)/1e6, 0)
}
