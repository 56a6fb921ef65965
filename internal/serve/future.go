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
	// KindSnapshotCell reads one partition cell's full replicated state for
	// peer rebuild and anti-entropy: the canonically sorted multiset of
	// items the half-open cell box owns, with parallel expiry deadlines and
	// the cell's orphaned expiry entries. ChecksumCell hashes this same cut.
	KindSnapshotCell
	// KindRestoreCell atomically replaces one partition cell's contents
	// with a peer's snapshot: a cell migration with no ledger ops.
	KindRestoreCell
	// KindMigrateCell atomically adopts a migrating cell region during an
	// online rebalance: the staged snapshot pages plus the replayed write
	// ledger become the region's exact contents, in one multiset-diff
	// commit.
	KindMigrateCell
	numKinds
)

// kinds holds each kind's facts in one place: the name /statsz and the
// latency histograms report it under, whether it leaves the tree unmodified
// (read batches may share a scheduling epoch; write batches never do), and
// the label every round of one of its batches runs under — a format given
// the batch's cell id (%[1]d) and its executor sequence number (%[2]d).
// Cell restores are labeled under fault/ so peer-rebuild cost lands in
// the fault-tolerance budget trace.SumByPrefix reports, and migration
// adopts under their own namespace so the rebalancer's cost stays separable
// from both serving and rebuilds.
var kinds = [numKinds]struct {
	name  string
	read  bool
	label string
}{
	KindLookup:       {"lookup", true, "serve/lookup/batch=%[2]d"},
	KindKNN:          {"knn", true, "serve/knn/batch=%[2]d"},
	KindRange:        {"range", true, "serve/range/batch=%[2]d"},
	KindInsert:       {"insert", false, "serve/insert/batch=%[2]d"},
	KindDelete:       {"delete", false, "serve/delete/batch=%[2]d"},
	KindJoin:         {"join", true, "serve/join/batch=%[2]d"},
	KindAggregate:    {"aggregate", true, "serve/aggregate/batch=%[2]d"},
	KindIngest:       {"ingest", false, "serve/ingest/batch=%[2]d"},
	KindExpire:       {"expire", false, "serve/expire/batch=%[2]d"},
	KindSnapshotCell: {"snapshot-cell", true, "serve/snapshot-cell/batch=%[2]d"},
	KindRestoreCell:  {"restore-cell", false, "fault/rebuild/cell=%[1]d"},
	KindMigrateCell:  {"migrate-cell", false, "shard/migrate/cell=%[1]d"},
}

func (k OpKind) String() string {
	if k >= 0 && k < numKinds {
		return kinds[k].name
	}
	return "unknown"
}

// IsRead reports whether the kind leaves the tree unmodified.
func (k OpKind) IsRead() bool { return k >= 0 && k < numKinds && kinds[k].read }

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
	// "idle" (the executor had nothing else to run), "linger" (MaxLinger
	// passed while the executor was busy), or "flush" (service shutdown).
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
	// snap is the restore-cell / migrate-cell payload. The cell id travels
	// in batchKey.k so distinct cells never coalesce; box holds the cell's
	// half-open box.
	snap *CellSnapshot
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
	items []core.Item // lookup, range, join
	// cands is the knn result in raw (dist2, id) form: the shard wire path
	// ships it as is, so a router merges shards without re-deriving dist2
	// from a rounded sqrt, and KNN converts it to Neighbors.
	cands []heapx.Candidate
	// agg carries the exact windowed-aggregation answer; shipping the raw
	// superaccumulator (not a rounded centroid) is what lets a router merge
	// shard partials bit-identically.
	agg *core.BoxAggregate
	// expired is the number of tracked ingest entries this expire request
	// swept (entries with deadline ≤ the request's now, popped this batch).
	expired int
	// snap is the snapshot-cell answer.
	snap *CellSnapshot
	// changed reports whether a restore-cell actually modified the cell
	// (false = the local copy already matched the peer snapshot — the
	// rebuild convergence signal).
	changed bool
	info    BatchInfo
	err     error
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
