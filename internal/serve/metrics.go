package serve

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"pimkd/internal/hist"
	"pimkd/internal/pim"
)

// sampleSize is the reservoir capacity for the batch-record sample exposed
// on /statsz.
const sampleSize = 32

// metrics aggregates per-batch records. It is written by the executor
// goroutine and read by Metrics callers, so it carries its own lock.
type metrics struct {
	mu      sync.Mutex
	rng     *rand.Rand
	perKind map[string]*kindAgg
	// lat holds per-kind service latency (admission → reply) in HDR-style
	// fixed-layout histograms, the source of the /statsz p50/p99/p999.
	lat map[string]*hist.Histogram

	epochs        int64
	totalRequests int64
	totalBatches  int64

	// Robustness counters (see Robustness).
	sheds           int64
	canceledReqs    int64
	batchPanics     int64
	persistFailures int64

	// sample is a uniform reservoir over all batch records, seeded by
	// Config.Seed so a replayed trace exposes an identical sample.
	sample []BatchRecord
	seen   int64
}

// kindAgg is the per-operation-kind aggregate.
type kindAgg struct {
	requests     int64
	batches      int64
	maxBatchSize int
	sealedFull   int64
	sealedLinger int64
	sealedIdle   int64
	sealedFlush  int64
	sumLinger    time.Duration
	maxLinger    time.Duration
	cost         pim.Stats
	sumBalance   float64
}

func newMetrics(seed int64) *metrics {
	return &metrics{rng: rand.New(rand.NewSource(seed)), perKind: map[string]*kindAgg{}, lat: map[string]*hist.Histogram{}}
}

// observeLatency records one request's service latency (admission to reply
// delivery) into its kind's histogram.
func (m *metrics) observeLatency(kind string, d time.Duration) {
	m.mu.Lock()
	h := m.lat[kind]
	if h == nil {
		h = &hist.Histogram{}
		m.lat[kind] = h
	}
	h.Record(int64(d))
	m.mu.Unlock()
}

// latencySnapshot returns a copy of the per-kind latency histograms (for
// the shard stats wire path, which re-quantizes on the router side).
func (m *metrics) latencySnapshot() map[string]*hist.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*hist.Histogram, len(m.lat))
	for k, h := range m.lat {
		c := *h
		out[k] = &c
	}
	return out
}

func (m *metrics) bump(f func(*metrics)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

// shed counts a submission rejected at the ShedHighWater mark.
func (m *metrics) shed() { m.bump(func(m *metrics) { m.sheds++ }) }

// canceled counts a request whose caller's context ended before execution
// (withdrawn from a forming batch, or pruned by the executor).
func (m *metrics) canceled() { m.bump(func(m *metrics) { m.canceledReqs++ }) }

// batchPanicked counts a batch execution ended by a panic.
func (m *metrics) batchPanicked() { m.bump(func(m *metrics) { m.batchPanics++ }) }

// persistFailed counts a write batch refused because its WAL append failed.
func (m *metrics) persistFailed() { m.bump(func(m *metrics) { m.persistFailures++ }) }

func (m *metrics) record(rec BatchRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.perKind[rec.Kind]
	if a == nil {
		a = &kindAgg{}
		m.perKind[rec.Kind] = a
	}
	a.requests += int64(rec.Size)
	a.batches++
	if rec.Size > a.maxBatchSize {
		a.maxBatchSize = rec.Size
	}
	switch rec.SealedBy {
	case "full":
		a.sealedFull++
	case "linger":
		a.sealedLinger++
	case "idle":
		a.sealedIdle++
	default:
		a.sealedFlush++
	}
	a.sumLinger += rec.Linger
	if rec.Linger > a.maxLinger {
		a.maxLinger = rec.Linger
	}
	a.cost = a.cost.Add(rec.Cost)
	a.sumBalance += rec.CommBalance

	m.totalRequests += int64(rec.Size)
	m.totalBatches++
	if rec.Epoch > m.epochs {
		m.epochs = rec.Epoch
	}

	// Reservoir sampling (Vitter's algorithm R) with the service rng.
	m.seen++
	if len(m.sample) < sampleSize {
		m.sample = append(m.sample, rec)
	} else if j := m.rng.Int63n(m.seen); j < sampleSize {
		m.sample[j] = rec
	}
}

// KindStats is the exported per-kind aggregate served on /statsz.
type KindStats struct {
	Kind          string    `json:"kind"`
	Requests      int64     `json:"requests"`
	Batches       int64     `json:"batches"`
	MeanBatchSize float64   `json:"mean_batch_size"`
	MaxBatchSize  int       `json:"max_batch_size"`
	SealedFull    int64     `json:"sealed_full"`
	SealedLinger  int64     `json:"sealed_linger"`
	SealedIdle    int64     `json:"sealed_idle"`
	SealedFlush   int64     `json:"sealed_flush"`
	MeanLinger    float64   `json:"mean_linger_us"`
	MaxLinger     float64   `json:"max_linger_us"`
	Cost          pim.Stats `json:"cost"`
	// CommPerRequest is off-chip words per request — the quantity the
	// paper bounds at O(log* P) for LeafSearch and O(k log* P) for kNN.
	CommPerRequest float64 `json:"comm_per_request"`
	// PIMTimePerRequest and RoundsPerBatch expose the straggler and BSP
	// dimensions of the same deltas.
	PIMTimePerRequest float64 `json:"pim_time_per_request"`
	RoundsPerBatch    float64 `json:"rounds_per_batch"`
	// MeanCommBalance averages per-batch max/mean module communication;
	// O(1) is Definition 1 PIM-balance.
	MeanCommBalance float64 `json:"mean_comm_balance"`
	// Latency quantiles in microseconds, measured service-side from
	// admission to reply delivery over every request of this kind (an
	// HDR-style histogram, not a sample — relative error ≤ ~3%).
	LatencyCount int64   `json:"latency_count"`
	P50US        float64 `json:"p50_us"`
	P90US        float64 `json:"p90_us"`
	P99US        float64 `json:"p99_us"`
	P999US       float64 `json:"p999_us"`
	MaxUS        float64 `json:"max_us"`
}

// Robustness is the fault-handling slice of the /statsz payload.
type Robustness struct {
	// Sheds counts submissions rejected above ShedHighWater (503s).
	Sheds int64 `json:"sheds"`
	// CanceledRequests counts requests dropped because their caller's
	// context ended before execution.
	CanceledRequests int64 `json:"canceled_requests"`
	// BatchRetries is always 0: a batch runs once, and a panic fails it.
	// The field stays for readers of the JSON shape.
	BatchRetries int64 `json:"batch_retries"`
	// BatchPanics counts batch executions ended by a panic, a module
	// program's included.
	BatchPanics int64 `json:"batch_panics"`
	// PersistFailures counts write batches refused because their
	// write-ahead-log append failed (durable-write mode only).
	PersistFailures int64 `json:"persist_failures"`
}

// MetricsSnapshot is the full /statsz payload.
type MetricsSnapshot struct {
	MaxBatch           int           `json:"max_batch"`
	MaxLingerUS        float64       `json:"max_linger_us"`
	MaxPending         int           `json:"max_pending"`
	Seed               int64         `json:"seed"`
	Epochs             int64         `json:"epochs"`
	TotalRequests      int64         `json:"total_requests"`
	TotalBatches       int64         `json:"total_batches"`
	MeanBatchSize      float64       `json:"mean_batch_size"`
	Robustness         Robustness    `json:"robustness"`
	Kinds              []KindStats   `json:"kinds"`
	Machine            pim.Stats     `json:"machine_totals"`
	MachineCommBalance float64       `json:"machine_comm_balance"`
	SampledBatches     []BatchRecord `json:"sampled_batches"`
}

func (m *metrics) snapshot(mach pim.Snapshot, cfg Config) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{
		MaxBatch:      cfg.MaxBatch,
		MaxLingerUS:   float64(cfg.MaxLinger) / float64(time.Microsecond),
		MaxPending:    cfg.MaxPending,
		Seed:          cfg.Seed,
		Epochs:        m.epochs,
		TotalRequests: m.totalRequests,
		TotalBatches:  m.totalBatches,
		Robustness: Robustness{
			Sheds:            m.sheds,
			CanceledRequests: m.canceledReqs,
			BatchPanics:      m.batchPanics,
			PersistFailures:  m.persistFailures,
		},
		Machine:            mach.Stats,
		MachineCommBalance: pim.MaxLoadRatio(mach.ModuleComm),
		SampledBatches:     append([]BatchRecord(nil), m.sample...),
	}
	if m.totalBatches > 0 {
		out.MeanBatchSize = float64(m.totalRequests) / float64(m.totalBatches)
	}
	for kind, a := range m.perKind {
		ks := KindStats{
			Kind:         kind,
			Requests:     a.requests,
			Batches:      a.batches,
			MaxBatchSize: a.maxBatchSize,
			SealedFull:   a.sealedFull,
			SealedLinger: a.sealedLinger,
			SealedIdle:   a.sealedIdle,
			SealedFlush:  a.sealedFlush,
			MaxLinger:    float64(a.maxLinger) / float64(time.Microsecond),
			Cost:         a.cost,
		}
		if a.batches > 0 {
			ks.MeanBatchSize = float64(a.requests) / float64(a.batches)
			ks.MeanLinger = float64(a.sumLinger) / float64(a.batches) / float64(time.Microsecond)
			ks.RoundsPerBatch = float64(a.cost.Rounds) / float64(a.batches)
			ks.MeanCommBalance = a.sumBalance / float64(a.batches)
		}
		if a.requests > 0 {
			ks.CommPerRequest = float64(a.cost.Communication) / float64(a.requests)
			ks.PIMTimePerRequest = float64(a.cost.PIMTime) / float64(a.requests)
		}
		if h := m.lat[kind]; h != nil && h.Count() > 0 {
			ks.LatencyCount = h.Count()
			ks.P50US = float64(h.Quantile(0.50)) / float64(time.Microsecond)
			ks.P90US = float64(h.Quantile(0.90)) / float64(time.Microsecond)
			ks.P99US = float64(h.Quantile(0.99)) / float64(time.Microsecond)
			ks.P999US = float64(h.Quantile(0.999)) / float64(time.Microsecond)
			ks.MaxUS = float64(h.Max()) / float64(time.Microsecond)
		}
		out.Kinds = append(out.Kinds, ks)
	}
	sort.Slice(out.Kinds, func(i, j int) bool { return out.Kinds[i].Kind < out.Kinds[j].Kind })
	return out
}
