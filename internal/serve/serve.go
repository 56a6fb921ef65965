package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/hist"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
	"pimkd/internal/trace"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: service closed")

// ErrOverloaded is returned when load shedding is enabled
// (Config.ShedHighWater > 0) and the service is above its high-water mark.
// The HTTP layer maps it to 503 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// ErrFault wraps a contained machine fault (an escalated module crash or a
// round timeout) that survived the batch retry policy. Read-only batches
// are retried Config.RetryTransient times before callers see this.
var ErrFault = errors.New("serve: machine fault")

// ErrBatchPanic wraps a non-fault panic recovered in the batch worker. The
// panic fails only the requests of the affected batch; the service and its
// executor keep running.
var ErrBatchPanic = errors.New("serve: batch execution panicked")

// ErrPersist wraps a write-ahead-log append failure in durable-write mode.
// Every write kind — insert, delete, ingest, expire, restore-cell and
// migrate-cell — reaches the tree through one log-then-apply commit, so the
// refused batch is NOT applied (what cannot be made durable is not
// acknowledged), yet is still recorded as an executed batch of its kind.
// The log stays poisoned until the operator intervenes — subsequent writes
// fail fast while reads keep serving.
var ErrPersist = errors.New("serve: durable log append failed")

// Service admits concurrent singleton requests, coalesces them into
// homogeneous batches, executes the batches against a PIM-kd-tree on its
// shared pim.Machine, and fans results back to the callers. All exported
// methods are safe for concurrent use; the tree itself is only ever touched
// by the internal executor goroutine.
type Service struct {
	cfg  Config
	tree *core.Tree

	// tokens is the admission semaphore: a request holds one token from
	// admission until its reply is delivered (backpressure).
	tokens chan struct{}
	// closing is closed by Close to release submitters blocked on tokens.
	closing chan struct{}
	// batchCh carries sealed batches to the executor in admission order.
	// Capacity MaxPending: every batch holds ≥1 admitted request, so sends
	// never block.
	batchCh chan *batch
	// done is closed when the executor has drained batchCh and exited.
	done chan struct{}

	mu      sync.Mutex
	pending map[batchKey]*pendingQueue
	closed  bool
	// idle is set by the executor when it finished a batch with nothing
	// sealed or forming; the next submit then seals its batch at once.
	idle bool
	// sealOrder is sealIdle's reusable key buffer.
	sealOrder []batchKey

	// size mirrors the tree's live item count so concurrent readers (the
	// shard wire listener's pings) never touch the executor-owned tree.
	size atomic.Int64

	metrics *metrics
	// tracer is the per-round observer attached to the tree's machine when
	// Config.TraceCapacity > 0; nil when tracing is disabled.
	tracer *trace.Tracer
	// batchSeq numbers executed batches for round-label attribution; only
	// the executor goroutine touches it.
	batchSeq int64
	// pre and post are the executor's machine snapshots bracketing each
	// batch, refilled in place so cost attribution allocates nothing.
	pre, post pim.Snapshot

	// expiry tracks streaming-ingest entries awaiting their TTL sweep;
	// executor-only (see expiry.go).
	expiry expiryHeap

	// testHookPreBatch, when non-nil, runs on the executor goroutine just
	// before a batch executes, inside the panic-containment scope. Tests use
	// it to inject batch-worker panics; production code never sets it.
	testHookPreBatch func(*batch)

	// Durable-write mode state (Config.Persist != nil; see persist.go).
	// persistCh hands started checkpoints to the checkpointer goroutine;
	// persistDone is closed when it exits. writesSinceCkpt and lastCkpt are
	// executor-only.
	persistCh       chan *persist.Checkpoint
	persistDone     chan struct{}
	writesSinceCkpt int
	lastCkpt        time.Time
}

// pendingQueue is a forming batch for one key.
type pendingQueue struct {
	reqs     []*request
	firstEnq time.Time
	timer    *time.Timer
	gen      uint64 // invalidates stale linger timers
}

// New wraps tree in a Service and starts its executor. The tree (and its
// machine) must not be used by anyone else until Close returns.
func New(cfg Config, tree *core.Tree) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		tree:    tree,
		tokens:  make(chan struct{}, cfg.MaxPending),
		closing: make(chan struct{}),
		batchCh: make(chan *batch, cfg.MaxPending),
		done:    make(chan struct{}),
		pending: map[batchKey]*pendingQueue{},
		idle:    true,
		metrics: newMetrics(cfg.Seed),
	}
	s.size.Store(int64(tree.Size()))
	if cfg.TraceCapacity > 0 {
		s.tracer = trace.New(cfg.TraceCapacity)
		tree.Machine().SetObserver(s.tracer)
	}
	if cfg.Persist != nil {
		s.persistCh = make(chan *persist.Checkpoint, 1)
		s.persistDone = make(chan struct{})
		s.lastCkpt = time.Now()
		go s.runCheckpointer()
	}
	go s.runExecutor()
	return s
}

// Tracer returns the per-round tracer, or nil when Config.TraceCapacity
// was 0. Safe to call concurrently; the Tracer's own methods are
// synchronized against the executor.
func (s *Service) Tracer() *trace.Tracer { return s.tracer }

// Lookup routes p to its leaf and returns a copy of the leaf's items. The
// BatchInfo describes the coalesced batch the request rode in.
func (s *Service) Lookup(ctx context.Context, p geom.Point) ([]core.Item, BatchInfo, error) {
	if err := s.checkPoint(p); err != nil {
		return nil, BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindLookup, pt: p})
	return rep.items, rep.info, err
}

// KNN returns up to k nearest neighbors of p by ascending distance: the
// KNNCandidates answer with each squared distance square-rooted.
func (s *Service) KNN(ctx context.Context, p geom.Point, k int) ([]Neighbor, BatchInfo, error) {
	cands, info, err := s.KNNCandidates(ctx, p, k)
	if err != nil {
		return nil, info, err
	}
	ns := make([]Neighbor, len(cands))
	for i, c := range cands {
		ns[i] = Neighbor{ID: c.ID, Dist: math.Sqrt(c.Dist2)}
	}
	return ns, info, nil
}

// KNNCandidates is KNN in raw wire form: up to k nearest neighbors as
// (dist2, id) candidates in the canonical order. The shard listener uses it
// so a router merges exact squared distances, never rounded square roots.
// Candidate requests coalesce into the same batches as KNN requests of the
// same k.
func (s *Service) KNNCandidates(ctx context.Context, p geom.Point, k int) ([]heapx.Candidate, BatchInfo, error) {
	if err := s.checkPoint(p); err != nil {
		return nil, BatchInfo{}, err
	}
	if k < 1 {
		return nil, BatchInfo{}, fmt.Errorf("serve: k must be >= 1, got %d", k)
	}
	rep, err := s.submit(ctx, &request{kind: KindKNN, pt: p, k: k})
	return rep.cands, rep.info, err
}

// Range returns the items inside box.
func (s *Service) Range(ctx context.Context, box geom.Box) ([]core.Item, BatchInfo, error) {
	if err := s.checkPoint(box.Lo); err != nil {
		return nil, BatchInfo{}, err
	}
	if err := s.checkPoint(box.Hi); err != nil {
		return nil, BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindRange, box: box})
	return rep.items, rep.info, err
}

// Insert adds item to the tree as part of a coalesced update batch.
func (s *Service) Insert(ctx context.Context, item core.Item) (BatchInfo, error) {
	if err := s.checkPoint(item.P); err != nil {
		return BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindInsert, item: item})
	return rep.info, err
}

// InsertUnique adds item with set semantics: a no-op if an identical
// (ID, coordinates) item is already stored. The replicated cluster apply
// path uses this — together with Delete's ignore-absent semantics it makes
// every fanned write idempotent, so a write racing a peer-rebuild restore
// of the same cell can never double-apply. Local (single-shard) callers
// keep the multiset Insert.
func (s *Service) InsertUnique(ctx context.Context, item core.Item) (BatchInfo, error) {
	if err := s.checkPoint(item.P); err != nil {
		return BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindInsert, item: item, unique: true})
	return rep.info, err
}

// Delete removes the item matching item's coordinates and ID; absent items
// are silently ignored (BatchDelete semantics).
func (s *Service) Delete(ctx context.Context, item core.Item) (BatchInfo, error) {
	if err := s.checkPoint(item.P); err != nil {
		return BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindDelete, item: item})
	return rep.info, err
}

// Join answers a batch-probe spatial join for one probe point: every
// stored item within Euclidean distance radius (inclusive), in the
// canonical core.ItemLess order. Probes submitted concurrently with the
// same radius coalesce into a single core.ProbeJoin batch.
func (s *Service) Join(ctx context.Context, p geom.Point, radius float64) ([]core.Item, BatchInfo, error) {
	if err := s.checkPoint(p); err != nil {
		return nil, BatchInfo{}, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, BatchInfo{}, fmt.Errorf("serve: join radius must be finite and >= 0, got %v", radius)
	}
	rep, err := s.submit(ctx, &request{kind: KindJoin, pt: p, radius: radius})
	return rep.items, rep.info, err
}

// Aggregate answers a windowed aggregation over box: the count and exact
// per-dimension coordinate sums of the stored items inside it. The raw
// BoxAggregate is returned (rather than a rounded centroid) so partial
// answers from different shards merge bit-identically.
func (s *Service) Aggregate(ctx context.Context, box geom.Box) (core.BoxAggregate, BatchInfo, error) {
	if err := s.checkPoint(box.Lo); err != nil {
		return core.BoxAggregate{}, BatchInfo{}, err
	}
	if err := s.checkPoint(box.Hi); err != nil {
		return core.BoxAggregate{}, BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindAggregate, box: box})
	if rep.agg == nil {
		return core.BoxAggregate{}, rep.info, err
	}
	return *rep.agg, rep.info, err
}

// Ingest adds item to the tree and tracks it for TTL expiry at the logical
// deadline expireAt. Deadlines are client-supplied logical time (compared
// against Expire's now with ≤), which keeps sweeps deterministic; callers
// wanting wall-clock TTLs pass UnixNano values.
func (s *Service) Ingest(ctx context.Context, item core.Item, expireAt int64) (BatchInfo, error) {
	if err := s.checkPoint(item.P); err != nil {
		return BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindIngest, item: item, expireAt: expireAt})
	return rep.info, err
}

// IngestUnique is Ingest with set semantics: the insert is skipped if an
// identical item is already stored, and the deadline is tracked only if no
// identical (item, deadline) entry exists. The cluster apply path's
// idempotent form of Ingest (see InsertUnique).
func (s *Service) IngestUnique(ctx context.Context, item core.Item, expireAt int64) (BatchInfo, error) {
	if err := s.checkPoint(item.P); err != nil {
		return BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindIngest, item: item, expireAt: expireAt, unique: true})
	return rep.info, err
}

// Expire sweeps every tracked ingest entry with deadline ≤ now, deleting
// the swept items from the tree as one write batch (WAL-logged before
// commit in durable mode). It returns the number of entries this request
// observed expiring: entries with deadline ≤ now that were popped during
// its batch, including ones attributed to a smaller now coalesced into the
// same batch.
func (s *Service) Expire(ctx context.Context, now int64) (int, BatchInfo, error) {
	rep, err := s.submit(ctx, &request{kind: KindExpire, now: now})
	return rep.expired, rep.info, err
}

// CellSnapshot is one partition cell's full replication state: the
// canonically sorted live multiset the half-open cell box owns with
// parallel expiry deadlines (math.MinInt64 = not expiry-tracked), plus the
// cell's orphan expiry entries — TTL entries whose item was since deleted
// through the plain delete path but which a future Expire sweep still pops
// and counts. Restoring both on a peer makes every later answer of the
// rebuilt replica, sweep counts included, bit-identical to the source.
type CellSnapshot struct {
	Items     []core.Item
	Deadlines []int64
	Orphans   []core.Item
	OrphanAts []int64
}

// SnapshotCell reads the cell's replication state as one consistent cut:
// executed on the executor, no write batch interleaves it. cellID only
// namespaces batching so different cells never coalesce; the box is
// authoritative (inclusive lower faces, exclusive upper faces — the
// partition's ownership convention).
func (s *Service) SnapshotCell(ctx context.Context, cellID int, cell geom.Box) (CellSnapshot, BatchInfo, error) {
	if err := s.checkCell(cellID, cell); err != nil {
		return CellSnapshot{}, BatchInfo{}, err
	}
	rep, err := s.submit(ctx, &request{kind: KindSnapshotCell, k: cellID, box: cell})
	if rep.snap == nil {
		return CellSnapshot{}, rep.info, err
	}
	return *rep.snap, rep.info, err
}

// ChecksumCell summarizes the cell's replication state as a live-item
// count plus an order-independent digest: a SnapshotCell cut, hashed on the
// caller's goroutine. Two replicas answering with equal checksums hold, up
// to a ~2⁻⁶⁴ digest collision, cell states a RestoreCell between them would
// not change — the router's anti-entropy sweep and the rebuilder's
// skip-if-identical fast path both compare these.
func (s *Service) ChecksumCell(ctx context.Context, cellID int, cell geom.Box) (shard.CellChecksum, BatchInfo, error) {
	snap, info, err := s.SnapshotCell(ctx, cellID, cell)
	if err != nil {
		return shard.CellChecksum{}, info, err
	}
	return cellChecksum(snap), info, nil
}

// RestoreCell atomically replaces the cell's local contents with a peer
// snapshot: the multiset diff between the local items the half-open cell
// box owns and the snapshot's is committed as one write batch, WAL-logged
// at execution time before it applies (so a torn rebuild stream that never
// reaches this call leaves the cell untouched). Expiry tracking for the
// cell — orphan entries included — is rebuilt from the snapshot. The
// returned changed flag is false when the local copy already matched, the
// rebuild convergence signal. The snapshot need not be sorted; the executor
// canonicalizes. A restore is MigrateCell with no ledger ops, labeled as
// rebuild cost instead of migration cost.
func (s *Service) RestoreCell(ctx context.Context, cellID int, cell geom.Box, snap CellSnapshot) (bool, BatchInfo, error) {
	return s.applyCell(ctx, KindRestoreCell, cellID, cell, snap, nil)
}

// MigrateCell atomically adopts a migrating cell region: the executor
// replays ops (the writes that raced the migration cut, in router ack
// order) on top of snap, then exact-sets the half-open cell box to the
// result with RestoreCell's one-batch multiset-diff commit — WAL-logged
// before it applies, so a torn migration stream that never reaches this
// call leaves the region untouched. The returned changed flag is false when
// the local copy already matched (the destination was already a replica of
// the moving region — an overlap adopt is a no-op). snap items and orphans
// must lie inside cell; replayed ops are filtered to the box by the
// executor, so a ledger op straddling the cut needs no caller-side
// geometry.
func (s *Service) MigrateCell(ctx context.Context, cellID int, cell geom.Box, snap CellSnapshot, ops []shard.MigrateOp) (bool, BatchInfo, error) {
	return s.applyCell(ctx, KindMigrateCell, cellID, cell, snap, ops)
}

// applyCell validates a restore or migrate payload and submits it.
func (s *Service) applyCell(ctx context.Context, kind OpKind, cellID int, cell geom.Box, snap CellSnapshot, ops []shard.MigrateOp) (bool, BatchInfo, error) {
	if err := s.checkCell(cellID, cell); err != nil {
		return false, BatchInfo{}, err
	}
	if len(snap.Items) != len(snap.Deadlines) || len(snap.Orphans) != len(snap.OrphanAts) {
		return false, BatchInfo{}, fmt.Errorf("serve: %v of %d/%d items with %d/%d deadlines",
			kind, len(snap.Items), len(snap.Deadlines), len(snap.Orphans), len(snap.OrphanAts))
	}
	for _, set := range [][]core.Item{snap.Items, snap.Orphans} {
		for i := range set {
			if err := s.checkPoint(set[i].P); err != nil {
				return false, BatchInfo{}, err
			}
			if !cell.ContainsHalfOpen(set[i].P) {
				return false, BatchInfo{}, fmt.Errorf("serve: %v item %d outside cell %d", kind, set[i].ID, cellID)
			}
		}
	}
	for i := range ops {
		if err := s.checkPoint(ops[i].Item.P); err != nil {
			return false, BatchInfo{}, err
		}
	}
	rep, err := s.submit(ctx, &request{kind: kind, k: cellID, box: cell, snap: &snap, ops: ops})
	return rep.changed, rep.info, err
}

func (s *Service) checkCell(cellID int, cell geom.Box) error {
	if cellID < 0 {
		return fmt.Errorf("serve: negative cell id %d", cellID)
	}
	if cell.Dim() != s.tree.Dim() {
		return fmt.Errorf("serve: cell dimension %d, tree dimension %d", cell.Dim(), s.tree.Dim())
	}
	return nil
}

// TreeSize returns the live item count without touching the executor-owned
// tree: the executor refreshes a lock-free mirror after every write batch,
// before replying to it. It reads your writes: once a write call returns,
// TreeSize reflects it.
func (s *Service) TreeSize() int64 { return s.size.Load() }

// Dim returns the tree's dimension (immutable after construction).
func (s *Service) Dim() int { return s.tree.Dim() }

// Metrics returns the live aggregated serving metrics.
func (s *Service) Metrics() MetricsSnapshot {
	return s.metrics.snapshot(s.tree.Machine().SnapshotStats(), s.cfg)
}

// LatencyHistograms returns a copy of the per-kind service-latency
// histograms (nanosecond values). The shard wire path ships these to the
// router, whose /shardz mirrors per-shard quantiles; copies merge exactly.
func (s *Service) LatencyHistograms() map[string]*hist.Histogram {
	return s.metrics.latencySnapshot()
}

// Close stops admission, flushes every forming batch, waits for the
// executor to drain, and returns. In-flight requests all receive replies.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	close(s.closing)
	for key := range s.pending {
		s.sealLocked(key, "flush")
	}
	close(s.batchCh)
	s.mu.Unlock()
	<-s.done
	return nil
}

func (s *Service) checkPoint(p geom.Point) error {
	if len(p) != s.tree.Dim() {
		return fmt.Errorf("serve: point dimension %d, tree dimension %d", len(p), s.tree.Dim())
	}
	return nil
}
