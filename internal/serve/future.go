package serve

import (
	"context"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
)

// OpKind identifies the homogeneous operation class of a request or batch.
type OpKind int

const (
	// KindLookup routes a point to its leaf and returns the leaf's items
	// (the paper's LeafSearch, Algorithm 4).
	KindLookup OpKind = iota
	// KindKNN is k-nearest-neighbor search (Theorem 4.5). Batches are
	// homogeneous in k as well as kind.
	KindKNN
	// KindRange is orthogonal range reporting (Lemma 4.7).
	KindRange
	// KindInsert is a batched insert (§4.2).
	KindInsert
	// KindDelete is a batched delete (§4.2).
	KindDelete
	// KindJoin is a batch-probe spatial join: all stored items within the
	// join radius of the probe point, canonically ordered. Probes sharing a
	// radius coalesce into one core.ProbeJoin batch.
	KindJoin
	// KindAggregate is windowed aggregation: count + exact coordinate sums
	// (centroid) of the stored items inside a query box.
	KindAggregate
	// KindIngest is a streaming-ingest insert: the item enters the tree and
	// is tracked for TTL expiry at a logical deadline.
	KindIngest
	// KindExpire sweeps tracked ingest entries whose deadline is ≤ the
	// request's logical now, deleting them from the tree.
	KindExpire
	// KindSnapshotCell reads one partition cell's contents for peer rebuild:
	// the canonically sorted multiset of items the half-open cell box owns,
	// with parallel expiry deadlines.
	KindSnapshotCell
	// KindChecksumCell summarizes one partition cell's replicated state as a
	// count + order-independent digest (anti-entropy). It reads exactly the
	// state KindSnapshotCell would ship, so checksum equality between two
	// replicas means a RestoreCell between them would change nothing.
	KindChecksumCell
	// KindRestoreCell atomically replaces one partition cell's contents
	// with a peer's snapshot (WAL-logged at execution time, like expire).
	// Batches of this kind are labeled fault/rebuild/cell=N so the
	// supervisor's metered accounting attributes rebuild cost exactly.
	KindRestoreCell
	// KindMigrateCell atomically adopts a migrating cell region during an
	// online rebalance: the staged snapshot pages plus the replayed write
	// ledger become the region's exact contents, with RestoreCell's
	// one-batch multiset-diff apply. Labeled shard/migrate/cell=N so the
	// migration's metered cost is attributable per cell.
	KindMigrateCell
	numKinds
)

func (k OpKind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindKNN:
		return "knn"
	case KindRange:
		return "range"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindJoin:
		return "join"
	case KindAggregate:
		return "aggregate"
	case KindIngest:
		return "ingest"
	case KindExpire:
		return "expire"
	case KindSnapshotCell:
		return "snapshot-cell"
	case KindChecksumCell:
		return "checksum-cell"
	case KindRestoreCell:
		return "restore-cell"
	case KindMigrateCell:
		return "migrate-cell"
	}
	return "unknown"
}

// IsRead reports whether the kind leaves the tree unmodified. Read batches
// may share a scheduling epoch; write batches never do.
func (k OpKind) IsRead() bool {
	switch k {
	case KindLookup, KindKNN, KindRange, KindJoin, KindAggregate, KindSnapshotCell, KindChecksumCell:
		return true
	}
	return false
}

// Neighbor is one kNN result: the stored item's ID and its Euclidean
// distance from the query point.
type Neighbor struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// BatchInfo describes, to the caller of a single request, the batch its
// request was executed in — the coalescing observability surface. Cost is
// the whole batch's PIM-Model stats delta; dividing by Size gives the
// caller's attributed share.
type BatchInfo struct {
	// Epoch is the scheduling epoch the batch executed in.
	Epoch int64 `json:"epoch"`
	// Kind is the batch's operation kind.
	Kind string `json:"kind"`
	// Size is the number of requests coalesced into the batch.
	Size int `json:"size"`
	// Linger is how long the batch's oldest request waited before the
	// batch was sealed.
	Linger time.Duration `json:"linger_ns"`
	// Cost is the pim.Stats delta metered across the batch execution.
	Cost pim.Stats `json:"cost"`
}

// BatchRecord is the executor's full per-batch trace entry, fed to the
// metrics aggregator, the optional Config.OnBatch observer, and the
// /statsz sample.
type BatchRecord struct {
	Epoch int64  `json:"epoch"`
	Kind  string `json:"kind"`
	// K is the kNN parameter for knn batches, 0 otherwise.
	K    int `json:"k,omitempty"`
	Size int `json:"size"`
	// Linger is the wait of the batch's oldest request until sealing.
	Linger time.Duration `json:"linger_ns"`
	// SealedBy is what closed the batch: "full" (reached MaxBatch),
	// "linger" (deadline), or "flush" (service shutdown).
	SealedBy string `json:"sealed_by"`
	// Cost is the PIM-Model stats delta of the batch execution.
	Cost pim.Stats `json:"cost"`
	// CommBalance is max/mean per-module communication within the batch
	// (Definition 1 PIM-balance: O(1) means no straggler module).
	CommBalance float64 `json:"comm_balance"`
}

// request is one admitted operation waiting for (or being) executed.
type request struct {
	kind     OpKind
	pt       geom.Point // lookup, knn, join
	k        int        // knn
	box      geom.Box   // range, aggregate
	item     core.Item  // insert, delete, ingest
	radius   float64    // join
	expireAt int64      // ingest: logical TTL deadline
	now      int64      // expire: logical sweep horizon
	// unique selects set semantics for insert/ingest: the op is a no-op if
	// an identical (ID, coordinates) item is already stored (and, for
	// ingest, an identical deadline entry already tracked). The replicated
	// cluster apply path uses this so a fanned write and a peer-rebuild
	// restore of the same item cannot double-apply.
	unique bool
	// cell state for snapshot-cell / restore-cell (cell id travels in
	// batchKey.k so distinct cells never coalesce). box holds the cell's
	// half-open box; the rest is the restore payload.
	items     []core.Item
	deadlines []int64
	orphans   []core.Item
	orphanAts []int64
	// ops is the migrate-cell write ledger: the inserts/deletes that raced
	// the migration cut, replayed in order onto the staged snapshot before
	// the exact-set apply.
	ops []shard.MigrateOp
	enq time.Time

	// ctx is the submitter's context. The executor consults it when the
	// batch comes up for execution and drops requests whose callers have
	// already gone away instead of paying machine work for them.
	ctx context.Context

	// done receives exactly one reply; it is buffered so the executor
	// never blocks on a caller that abandoned its context.
	done chan reply
}

// reply is the fanned-out result of one request.
type reply struct {
	items     []core.Item // lookup, range, join
	neighbors []Neighbor  // knn
	// cands is the knn result in raw (dist2, id) form — what the shard wire
	// path returns so a router can merge shards without re-deriving dist2
	// from a rounded sqrt.
	cands []heapx.Candidate
	// agg carries the exact windowed-aggregation answer; shipping the raw
	// superaccumulator (not a rounded centroid) is what lets a router merge
	// shard partials bit-identically.
	agg *core.BoxAggregate
	// expired is the number of tracked ingest entries this expire request
	// swept (entries with deadline ≤ the request's now, popped this batch).
	expired int
	// deadlines parallels items for snapshot-cell replies (math.MinInt64
	// sentinel = no TTL entry); orphans/orphanAts carry the cell's expiry
	// entries whose item is no longer live.
	deadlines []int64
	orphans   []core.Item
	orphanAts []int64
	// changed reports whether a restore-cell actually modified the cell
	// (false = the local copy already matched the peer snapshot — the
	// rebuild convergence signal).
	changed bool
	// csum is the checksum-cell answer.
	csum shard.CellChecksum
	info BatchInfo
	err  error
}

// batchKey groups coalescible requests: same kind, for kNN the same k
// (core.KNN answers a whole batch at a single k), and for joins the
// same radius (core.ProbeJoin probes a whole batch at a single radius).
type batchKey struct {
	kind OpKind
	k    int
	// radiusBits is the join radius's IEEE bits (float64 is not a valid
	// map-key discriminator when NaN; radii are validated finite ≥ 0).
	radiusBits uint64
	// unique separates set-semantics insert/ingest batches from multiset
	// ones: they execute (and WAL-log) differently, so they never coalesce.
	unique bool
}

// batch is a sealed set of homogeneous requests ready for execution.
type batch struct {
	key      batchKey
	reqs     []*request
	firstEnq time.Time
	sealed   time.Time
	sealedBy string
}
