package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/kd"
)

// ErrDegraded is returned when an exact answer (or a durable ack) requires
// a replica that is currently unavailable. The router never silently
// returns a partial answer and never pretends an unacked write succeeded:
// a query either is provably exact — every skipped cell strictly farther
// than the k-th candidate, every needed cell covered by an in-sync replica
// — or it fails with this error. The HTTP layer maps it to 503.
var ErrDegraded = errors.New("shard: cluster degraded, required replica unavailable")

// ErrMigrating is returned for writes that arrive inside a migration commit
// window, and for expiry sweeps while any part of a migration (ledger
// capture, commit, or stray purge) is pending — short, bounded
// unavailability the caller retries. The HTTP layer maps it to 503 with a
// constant one-second Retry-After hint: the commit window lasts one ledger
// replay, far less than the header's one-second resolution.
var ErrMigrating = errors.New("shard: cell migration in progress, retry shortly")

// Config parameterizes a Router. The zero value is usable; defaults are
// filled in by NewRouter.
type Config struct {
	// Replication is the number of copies of every cell (primary + R-1
	// replicas on the following shards). Default 2; clamped to the shard
	// count. 1 disables replication (single-copy cells, no failover).
	Replication int
	// Timeout bounds each per-shard call (dial + round trip). Default 2s.
	Timeout time.Duration
	// FailThreshold is how many consecutive transport failures mark a
	// shard unhealthy (excluded from fan-out until a probe revives it).
	// Default 3.
	FailThreshold int
	// ProbeInterval is the health-probe cadence: every interval the router
	// pings every shard, reviving recovered ones, refreshing live point
	// counts and sync state, and nudging fenced shards to resync. Default
	// 500ms.
	ProbeInterval time.Duration
	// SweepInterval is the anti-entropy cadence: every interval the router
	// asks every eligible replica of every cell for a cell checksum and
	// evidenced-fences replicas that stably diverge from the majority —
	// catching divergence the write path never observed (disk corruption, a
	// latent apply bug, a full-cluster restart). Default 10×ProbeInterval;
	// negative disables the sweep.
	SweepInterval time.Duration
	// SweepSettle is how long a sweep waits before re-sampling a
	// mismatching cell to confirm the divergence is stable. Only replicas
	// whose checksum is identical across both samples are judged; with a
	// settle of at least the write timeout, a replica still absorbing an
	// in-flight write changes its digest between samples and is skipped —
	// the zero-false-positive guard. Default = Timeout.
	SweepSettle time.Duration
	// RebalanceInterval is the online-rebalancer cadence: every interval
	// the router samples per-cell point counts from acting primaries and,
	// when the most loaded shard drifts past RebalanceThreshold, splits its
	// largest cell and live-migrates the moving half (rebalance.go). 0
	// disables rebalancing (the default); negative also disables.
	RebalanceInterval time.Duration
	// RebalanceThreshold is the max/mean shard drift ratio that triggers a
	// rebalance pass; Status flags the shards above it as rebalance
	// candidates. Default 2.0.
	RebalanceThreshold float64
	// MigratePageSize is the page size, in items, with which a migration
	// destination pulls its cut from the source. Default 512.
	MigratePageSize int
}

func (c Config) withDefaults() Config {
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 10 * c.ProbeInterval
	}
	if c.SweepSettle <= 0 {
		c.SweepSettle = c.Timeout
	}
	if c.RebalanceThreshold <= 0 {
		c.RebalanceThreshold = 2.0
	}
	if c.MigratePageSize <= 0 {
		c.MigratePageSize = 512
	}
	return c
}

// shardHandle is the router's per-shard state: the wire client plus
// health, sync, and stale-fence tracking.
type shardHandle struct {
	id     int
	client *Client
	// healthy gates fan-out membership. Consecutive transport failures
	// (FailThreshold) clear it; only a successful probe sets it again.
	healthy atomic.Bool
	// everHealthy distinguishes first contact from a revival: a shard
	// coming back after being routed around may have missed acked writes
	// and is fenced stale until it resyncs; a shard seen for the first
	// time is trusted to the extent of its own sync claim.
	everHealthy atomic.Bool
	fails       atomic.Int32
	// count estimates the shard's live point count (all hosted replicas):
	// adjusted on acked updates, refreshed authoritatively from pongs.
	count atomic.Int64
	// synced/syncGen mirror the last pong's sync claim.
	synced  atomic.Bool
	syncGen atomic.Uint64

	// staleMu guards the stale fence state machine. A stale shard missed
	// (or may have missed) an acked write of one of its cells: it keeps
	// receiving writes but serves no reads until a resync pass that began
	// after the miss completes. The probe loop delivers the nudge; the
	// shard answers with the target generation proving such a pass, and
	// the fence lifts when its pong generation reaches it.
	staleMu sync.Mutex
	stale   bool
	// staleEvidenced records whether the current fence is backed by a
	// watched miss (the router saw another replica ack a write this shard
	// did not apply) rather than being a revival precaution. The nudge
	// relays it: an evidenced resync must converge against a peer before
	// the shard's generation can reach the target, while a precautionary
	// one may fall back to the shard's own durable state when no peer
	// turns up — safe, because any write acked during the outage would
	// have fenced the shard evidenced at ack time.
	staleEvidenced bool
	staleEpoch     uint64 // bumped per markStale; invalidates in-flight nudges
	nudgeBusy      bool   // a nudge RPC is in flight
	nudged         bool   // a nudge was delivered for the current epoch
	nudgeTarget    uint64 // unfence when the pong generation reaches this
}

// markStale fences the shard from reads until a post-miss resync pass
// completes; evidenced distinguishes a watched miss from a revival
// precaution (sticky for the fence's lifetime — a precautionary fence
// upgraded by a miss stays evidenced). It reports whether this call made
// the shard stale (false if it already was — the epoch still advances so
// any in-flight nudge from before this new miss cannot unfence it).
func (sh *shardHandle) markStale(evidenced bool) bool {
	sh.staleMu.Lock()
	defer sh.staleMu.Unlock()
	was := sh.stale
	sh.stale = true
	sh.staleEvidenced = sh.staleEvidenced || evidenced
	sh.nudged = false
	sh.staleEpoch++
	return !was
}

func (sh *shardHandle) isStale() bool {
	sh.staleMu.Lock()
	defer sh.staleMu.Unlock()
	return sh.stale
}

// layout is one immutable epoch of the cluster geometry: the partition,
// the cell→replica placement, and the per-cell read-rotation counters. The
// online rebalancer builds the next epoch copy-on-write and the router
// swaps the whole struct atomically at a migration commit, so every plan
// reads one consistent (partition, placement) pair and can never mix the
// old cell boxes with the new replica lists. readers counts in-flight read
// plans pinned to this epoch; the committer drains it before reopening
// writes, because an old-epoch plan may still be reading the moving region
// from a source replica that stops seeing its writes at the flip.
type layout struct {
	part  *Partition
	pl    Placement
	epoch uint64
	// rr rotates read assignments across each cell's eligible replicas
	// (read scale-out): successive reads of one cell land on different
	// in-sync, unfenced replicas instead of pinning the placement-first one.
	rr      []atomic.Uint32
	readers atomic.Int64
}

func newLayout(part *Partition, pl Placement, epoch uint64) *layout {
	return &layout{part: part, pl: pl, epoch: epoch, rr: make([]atomic.Uint32, pl.NumCells())}
}

// hostedBoxes returns the cell boxes shard hosts under this layout — the
// read-side ownership filter. An item a shard returns from outside every
// hosted box is a migration stray: a moved region not yet purged from its
// old replicas, or a staged region left by an aborted commit. Strays stop
// receiving writes the moment the layout that owned them goes away, so
// letting one into a merged answer could resurrect a post-migration
// delete; filtering by current ownership makes them invisible instead.
func (l *layout) hostedBoxes(shard int) []geom.Box {
	var out []geom.Box
	for _, c := range l.pl.CellsOf(shard) {
		out = append(out, l.part.Cell(c))
	}
	return out
}

func ownsPoint(boxes []geom.Box, p geom.Point) bool {
	for _, b := range boxes {
		if b.ContainsHalfOpen(p) {
			return true
		}
	}
	return false
}

// Router runs N shards behind one logical index: every partition cell is
// stored on R shards (Placement), writes fan to all replicas of the owning
// cell and ack when any in-sync replica durably applied them (surviving
// replicas keep accepting writes when the primary dies — failover, not
// refusal), and reads are planned per cell over in-sync replicas with the
// exactness contract intact. All methods are safe for concurrent use.
//
// The read merges rely on the cluster state being a set keyed (ID, P):
// every router write goes through the shards' idempotent set-semantics
// apply path, so two replicas of one cell hold equal item sets and
// cross-replica duplicates can be removed exactly.
type Router struct {
	cfg    Config
	shards []*shardHandle

	// lay is the current layout epoch, swapped atomically by the online
	// rebalancer at a migration commit. Read plans pin it with
	// acquireLayout; everything else takes a point-in-time Load.
	lay atomic.Pointer[layout]

	// migMu is the write/migration barrier. Every fanned write (and expiry
	// sweep) holds the read half for its whole duration; the rebalancer
	// holds the write half to open the ledger and again for the commit
	// window — so the ledger observes every write that could land after the
	// cut, and the commit observes no write in flight. commitGate bounces
	// writes with ErrMigrating (503 + Retry-After upstream) instead of
	// queueing them on the lock during the commit window.
	migMu      sync.RWMutex
	mig        *migLedger // non-nil while a migration is capturing writes
	commitGate atomic.Bool

	// rb is the online rebalancer's cross-tick state (rebalance.go).
	rb rebalState

	// sweepMu guards the per-cell anti-entropy result rows for /shardz.
	sweepMu    sync.Mutex
	sweepCells []CellSweepStatus

	closed    chan struct{}
	closeMu   sync.Mutex
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	m routerMetrics
}

// acquireLayout pins the current layout for a read plan. The rebalancer's
// commit path drains old-epoch readers before reopening writes, so a plan
// that started on the old geometry finishes against replicas whose moving
// region is still write-quiescent — bit-identical — never against a
// half-updated world.
func (r *Router) acquireLayout() *layout {
	for {
		lay := r.lay.Load()
		lay.readers.Add(1)
		if r.lay.Load() == lay {
			return lay
		}
		lay.readers.Add(-1)
	}
}

func releaseLayout(lay *layout) { lay.readers.Add(-1) }

func (r *Router) dim() int { return r.lay.Load().part.Dim() }

// routerMetrics aggregates router-side counters for /statsz.
type routerMetrics struct {
	knnRequests   atomic.Int64
	rangeRequests atomic.Int64
	joinRequests  atomic.Int64
	aggRequests   atomic.Int64
	ingests       atomic.Int64
	expires       atomic.Int64
	updates       atomic.Int64
	degraded      atomic.Int64
	errors        atomic.Int64
	shardCalls    atomic.Int64
	pruned        atomic.Int64
	failovers     atomic.Int64
	staleMarks    atomic.Int64
	resyncNudges  atomic.Int64
	sweeps        atomic.Int64
	sweepMismatch atomic.Int64
	sweepTies     atomic.Int64
	rebalances    atomic.Int64
	migratedPts   atomic.Int64
	migrateAborts atomic.Int64
}

// Fanout describes, per request, how the fan-out went — the pruning
// observability surface mirroring serve.BatchInfo.
type Fanout struct {
	// Shards is the cluster size.
	Shards int `json:"shards"`
	// Queried is how many shard calls the request completed successfully.
	Queried int `json:"queried"`
	// Pruned is how many cells the distance/intersection pruning skipped
	// (provably unable to affect the answer).
	Pruned int `json:"pruned"`
}

// NewRouter connects to one shard per partition cell (addrs[i] is shard
// i), derives the replica placement from cfg.Replication, performs an
// initial synchronous membership probe, and starts the background health
// loop. Unreachable shards leave the router serving in degraded mode until
// a probe revives them.
func NewRouter(part *Partition, addrs []string, cfg Config) (*Router, error) {
	if len(addrs) != part.Shards() {
		return nil, fmt.Errorf("shard: %d addresses for %d partition cells", len(addrs), part.Shards())
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:    cfg,
		closed: make(chan struct{}),
	}
	// Epochs start at 1: epoch 0 is the wire protocol's malformed-epoch
	// sentinel, so a zero can never be mistaken for a real migration.
	r.lay.Store(newLayout(part, NewPlacement(part.Shards(), cfg.Replication), 1))
	r.rb.dirty = map[int][]dirtyRegion{}
	r.runCtx, r.runCancel = context.WithCancel(context.Background())
	for i, addr := range addrs {
		r.shards = append(r.shards, &shardHandle{id: i, client: NewClient(addr, part.Dim())})
	}
	r.probeAll()
	r.wg.Add(1)
	go r.probeLoop()
	if cfg.SweepInterval > 0 && r.Replication() > 1 {
		// Anti-entropy only means anything with ≥2 copies to compare.
		r.wg.Add(1)
		go r.sweepLoop()
	}
	if cfg.RebalanceInterval > 0 {
		r.wg.Add(1)
		go r.rebalanceLoop()
	}
	return r, nil
}

// Replication returns the effective replication factor.
func (r *Router) Replication() int { return r.lay.Load().pl.Replication() }

// Epoch returns the current placement epoch: 1 at boot, +1 per committed
// cell migration.
func (r *Router) Epoch() uint64 { return r.lay.Load().epoch }

// Close stops the probe loop and drops every shard connection.
func (r *Router) Close() {
	r.closeMu.Lock()
	select {
	case <-r.closed:
	default:
		close(r.closed)
	}
	r.closeMu.Unlock()
	r.runCancel()
	r.wg.Wait()
	for _, sh := range r.shards {
		sh.client.Close()
	}
}

func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll pings every shard: a ready pong revives the shard, refreshes
// its authoritative point count and sync claim, and drives the stale-fence
// state machine (nudging fenced shards to resync, unfencing them when a
// post-miss pass completed). A failure counts against health.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *shardHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
			defer cancel()
			pong, err := sh.client.Ping(ctx)
			if err != nil || !pong.Ready {
				r.noteFailure(sh)
				return
			}
			sh.count.Store(pong.Size)
			sh.fails.Store(0)
			sh.synced.Store(pong.Synced)
			sh.syncGen.Store(pong.SyncGen)
			if !sh.healthy.Load() && sh.everHealthy.Load() && r.Replication() > 1 {
				// Revival: while this shard was routed around, its cells'
				// writes were acked by the other replicas. Fence it until a
				// fresh resync pass proves it caught up — and fence BEFORE
				// flipping healthy, so a concurrent read plan can never
				// catch the shard healthy-but-unfenced (and with the sync
				// claim refreshed above, never healthy with a pre-outage
				// claim either). (At R=1 nothing can have been acked
				// without it, so no fence is needed.)
				if sh.markStale(false) {
					r.m.staleMarks.Add(1)
				}
			}
			sh.healthy.Store(true)
			sh.everHealthy.Store(true)

			sh.staleMu.Lock()
			if sh.stale && sh.nudged && pong.Synced && pong.SyncGen >= sh.nudgeTarget {
				sh.stale = false
				sh.nudged = false
				sh.staleEvidenced = false
			}
			sh.staleMu.Unlock()
			r.nudgeIfNeeded(sh)
		}(sh)
	}
	wg.Wait()
}

// nudgeIfNeeded dispatches one resync nudge to a stale shard unless one
// is already in flight or was delivered for the current fence epoch. It
// runs from the probe loop and — so a shard that just missed an acked
// write withdraws its sync claim (and stops serving as a rebuild source)
// without waiting out a probe interval — directly from fanWrite's
// fencing path.
func (r *Router) nudgeIfNeeded(sh *shardHandle) {
	sh.staleMu.Lock()
	if sh.stale && !sh.nudged && !sh.nudgeBusy {
		sh.nudgeBusy = true
		go r.nudge(sh, sh.staleEpoch, sh.staleEvidenced)
	}
	sh.staleMu.Unlock()
}

// nudge asks a fenced shard to run another resync pass and records the
// target generation its answer promises. A nudge raced by a newer miss
// (epoch advanced) is discarded — the next probe sends a fresh one.
func (r *Router) nudge(sh *shardHandle, epoch uint64, evidenced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
	defer cancel()
	started, target, err := sh.client.Resync(ctx, evidenced)
	r.m.resyncNudges.Add(1)
	sh.staleMu.Lock()
	defer sh.staleMu.Unlock()
	sh.nudgeBusy = false
	if err != nil || !started || epoch != sh.staleEpoch || !sh.stale {
		return
	}
	sh.nudged = true
	sh.nudgeTarget = target
}

func (r *Router) noteFailure(sh *shardHandle) {
	if int(sh.fails.Add(1)) >= r.cfg.FailThreshold {
		sh.healthy.Store(false)
	}
}

// eligible reports whether a shard may serve reads and count as a write
// acker: reachable, self-reportedly in sync, and not fenced stale.
func (r *Router) eligible(sh *shardHandle) bool {
	return sh.healthy.Load() && sh.synced.Load() && !sh.isStale()
}

// pickReplica returns an eligible replica of cell not yet in tried,
// rotating a per-cell counter across the eligible set — read scale-out:
// successive reads of a hot cell spread over every in-sync, unfenced
// replica instead of pinning the placement-first one. Exactness is
// untouched because any eligible replica holds the cell's full acked set
// and the gather dedups cross-replica copies canonically. Writes and
// failover keep the placement order (fanWrite / ActingPrimary).
func (r *Router) pickReplica(lay *layout, cell int, tried map[int]bool) *shardHandle {
	elig := make([]*shardHandle, 0, lay.pl.Replication())
	for _, rep := range lay.pl.Replicas(cell) {
		if tried[rep] {
			continue
		}
		if sh := r.shards[rep]; r.eligible(sh) {
			elig = append(elig, sh)
		}
	}
	if len(elig) == 0 {
		return nil
	}
	return elig[int(lay.rr[cell].Add(1))%len(elig)]
}

// callShard makes one attempt against a shard with the per-call timeout,
// for reads and writes alike. A success resets the shard's failure count;
// only a transport failure counts against its health — a *RemoteError
// means the shard is alive and answering. Failover to another replica is
// the caller's job (coverCells, fanWrite), not a retry here.
func (r *Router) callShard(ctx context.Context, sh *shardHandle, attempt func(context.Context) (any, error)) (any, error) {
	cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	r.m.shardCalls.Add(1)
	v, err := attempt(cctx)
	var re *RemoteError
	switch {
	case err == nil:
		sh.fails.Store(0)
	case !errors.As(err, &re):
		r.noteFailure(sh)
	}
	return v, err
}

// shardResp is one successful shard call in a read plan: the shard, the
// cells it was assigned, and the decoded response.
type shardResp struct {
	sh    *shardHandle
	cells []int
	v     any
}

// coverCells drives a per-cell read plan: every cell in needed must end up
// covered by a successful response from an eligible replica hosting it.
// Each round assigns every uncovered cell to its first eligible untried
// replica in failover order, queries the planned shards in parallel, and
// retries the cells of failed shards on their remaining replicas — so a
// replica dying mid-run fails over within the request instead of erroring.
// When wholeTree is set a shard's success covers every hosted cell (the
// response is the answer over its whole tree); otherwise only the cells
// it was explicitly assigned (AggregateCells filters to them). Cells with
// no eligible replica left are returned as uncovered; the caller decides
// whether that degrades the answer.
func (r *Router) coverCells(ctx context.Context, lay *layout, needed []int, covered, tried map[int]bool, wholeTree bool,
	query func(c context.Context, sh *shardHandle, cells []int) (any, error)) (resps []shardResp, uncovered []int) {
	for {
		var remaining []int
		for _, cell := range needed {
			if !covered[cell] {
				remaining = append(remaining, cell)
			}
		}
		if len(remaining) == 0 {
			return resps, nil
		}
		plan := map[int][]int{}
		for _, cell := range remaining {
			if sh := r.pickReplica(lay, cell, tried); sh != nil {
				plan[sh.id] = append(plan[sh.id], cell)
			}
		}
		if len(plan) == 0 {
			return resps, remaining
		}
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for rep, cells := range plan {
			tried[rep] = true
			sh := r.shards[rep]
			wg.Add(1)
			go func(sh *shardHandle, cells []int) {
				defer wg.Done()
				v, err := r.callShard(ctx, sh, func(c context.Context) (any, error) {
					return query(c, sh, cells)
				})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					return // the next round reassigns these cells
				}
				resps = append(resps, shardResp{sh: sh, cells: cells, v: v})
				if wholeTree {
					for _, cell := range needed {
						if lay.pl.Hosts(cell, sh.id) {
							covered[cell] = true
						}
					}
				} else {
					for _, cell := range cells {
						covered[cell] = true
					}
				}
			}(sh, cells)
		}
		wg.Wait()
	}
}

// candLess orders candidates canonically (dist2, id) with an exact
// coordinate tie-break, so cross-replica duplicates sort adjacent.
func candLess(a, b heapx.Candidate) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			return a.P[i] < b.P[i]
		}
	}
	return false
}

func candEq(a, b heapx.Candidate) bool {
	return !candLess(a, b) && !candLess(b, a)
}

// filterCands drops candidates outside the answering shard's hosted boxes
// (migration strays). Filtering is in place; the caller owns the slice.
func filterCands(boxes []geom.Box, cands []heapx.Candidate) []heapx.Candidate {
	out := cands[:0]
	for _, c := range cands {
		if ownsPoint(boxes, c.P) {
			out = append(out, c)
		}
	}
	return out
}

// filterItems drops items outside the answering shard's hosted boxes
// (migration strays). Filtering is in place; the caller owns the slice.
func filterItems(boxes []geom.Box, items []core.Item) []core.Item {
	out := items[:0]
	for _, it := range items {
		if ownsPoint(boxes, it.P) {
			out = append(out, it)
		}
	}
	return out
}

// maxKNNAsk caps knnOwned's escalation; doubling past a shard's tree size
// always terminates the loop first, so hitting the cap means the shard is
// answering nonsense.
const maxKNNAsk = 1 << 30

// knnOwned asks sh for the top-k among the points it OWNS under lay — the
// stray-safe per-shard kNN. The shard answers whole-tree top-k, and
// migration strays (a moved region awaiting purge, an abandoned stage) can
// crowd owned true neighbors out of a truncated answer: filtering after
// truncation would silently drop them from the merge with no ErrDegraded,
// breaking bit-identity. So a response is conclusive only when the shard
// returned its whole tree (fewer candidates than asked — every owned point
// is present) or at least k candidates survive the ownership filter (the
// k-th owned candidate then bounds everything unreturned); otherwise an
// owned neighbor may hide beyond the truncation and the ask doubles.
// Escalation terminates in O(log n) ordinary wire calls: the ask doubles
// past the shard's tree size and the whole tree comes back.
func (r *Router) knnOwned(ctx context.Context, lay *layout, sh *shardHandle, q geom.Point, k int) ([]heapx.Candidate, error) {
	boxes := lay.hostedBoxes(sh.id)
	for ask := k; ; {
		raw, err := sh.client.KNN(ctx, []geom.Point{q}, ask)
		if err != nil {
			return nil, err
		}
		cands := raw[0]
		wholeTree := len(cands) < ask
		owned := filterCands(boxes, cands)
		if wholeTree || len(owned) >= k {
			return owned, nil
		}
		if ask >= maxKNNAsk {
			return nil, fmt.Errorf("shard %d: kNN stray escalation exceeded ask %d", sh.id, ask)
		}
		ask *= 2
		r.m.shardCalls.Add(1)
	}
}

// KNN answers an exact k-nearest-neighbor query across the cluster in
// canonical (dist2, id) order, identical to a single tree holding the
// union of the shards' points.
//
// Plan: cells are ranked by squared distance to the query. An eligible
// replica of the nearest cell is asked first; its k-th candidate gives the
// pruning bound, and every cell within the bound (<=, not <: an
// equal-distance cell can still displace by ID) must then be covered by an
// eligible replica. Each queried shard answers through knnOwned — its
// whole-tree top-k filtered to the points it owns under the pinned layout,
// re-asked with a doubled k while migration strays crowd owned candidates
// out of the truncation — so every response is the top-k of the shard's
// OWNED points (or all of them). The gather sorts all candidates
// canonically, removes exact cross-replica duplicates (sound because the
// replicated state is a set), and keeps the k best. That merge is exact: a
// queried shard's unreturned owned points are canonically beyond its own
// k-th returned candidate, which the deduped union's k-th can never
// exceed. Uncovered cells must be provably unable to matter — merged set
// full and the cell strictly farther than the k-th candidate — or the
// query fails with ErrDegraded.
func (r *Router) KNN(ctx context.Context, q geom.Point, k int) ([]heapx.Candidate, Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	lay := r.acquireLayout()
	defer releaseLayout(lay)
	if len(q) != lay.part.Dim() {
		return nil, fan, fmt.Errorf("shard: query dimension %d, cluster dimension %d", len(q), lay.part.Dim())
	}
	if k < 1 {
		return nil, fan, fmt.Errorf("shard: k must be >= 1, got %d", k)
	}
	r.m.knnRequests.Add(1)

	type ranked struct {
		cell int
		d2   float64
	}
	order := make([]ranked, lay.part.Cells())
	for i := range order {
		order[i] = ranked{i, lay.part.Cell(i).Dist2ToPoint(q)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d2 != order[j].d2 {
			return order[i].d2 < order[j].d2
		}
		return order[i].cell < order[j].cell
	})
	cellD2 := make([]float64, len(order))
	for _, rk := range order {
		cellD2[rk.cell] = rk.d2
	}

	covered := map[int]bool{}
	tried := map[int]bool{}
	var resps []shardResp
	bound := math.Inf(1)

	// Phase 1: an eligible replica of the nearest cell sets the pruning
	// bound (rotated per cell — read scale-out). knnOwned makes the response
	// conclusive for the shard's owned points, so a migration stray can
	// neither over-tighten the bound (pruning a cell that still matters)
	// nor crowd a true owned neighbor out of the truncated top-k.
	if sh := r.pickReplica(lay, order[0].cell, tried); sh != nil {
		tried[sh.id] = true
		v, err := r.callShard(ctx, sh, func(c context.Context) (any, error) {
			return r.knnOwned(c, lay, sh, q, k)
		})
		if err == nil {
			resps = append(resps, shardResp{sh: sh, v: v})
			for _, rk := range order {
				if lay.pl.Hosts(rk.cell, sh.id) {
					covered[rk.cell] = true
				}
			}
			cands := v.([]heapx.Candidate)
			if len(cands) >= k {
				bound = cands[k-1].Dist2
			}
		}
	}

	// Phase 2: every cell that can still matter must be covered.
	var needed []int
	for _, rk := range order {
		if rk.d2 > bound {
			fan.Pruned++
			r.m.pruned.Add(1)
			continue
		}
		needed = append(needed, rk.cell)
	}
	more, uncovered := r.coverCells(ctx, lay, needed, covered, tried, true,
		func(c context.Context, sh *shardHandle, _ []int) (any, error) {
			return r.knnOwned(c, lay, sh, q, k)
		})
	resps = append(resps, more...)
	fan.Queried = len(resps)

	// Gather: responses are already stray-filtered and conclusive (knnOwned);
	// dedup cross-replica copies, keep the global top-k.
	var all []heapx.Candidate
	for _, rp := range resps {
		all = append(all, rp.v.([]heapx.Candidate)...)
	}
	sort.Slice(all, func(i, j int) bool { return candLess(all[i], all[j]) })
	best := heapx.NewKBest(k)
	for i, c := range all {
		if i > 0 && candEq(c, all[i-1]) {
			continue
		}
		best.OfferCand(c)
	}
	merged := best.Sorted()

	// Exactness post-check: every uncovered cell must be provably unable to
	// change the answer — the merged set is full and the cell is strictly
	// farther than the k-th candidate (equality could still displace by ID).
	finalBound := math.Inf(1)
	if len(merged) == k {
		finalBound = merged[k-1].Dist2
	}
	for _, cell := range uncovered {
		if len(merged) < k || cellD2[cell] <= finalBound {
			r.m.degraded.Add(1)
			return nil, fan, fmt.Errorf("%w: cell %d has no in-sync replica for kNN (cell dist2 %g, bound %g)",
				ErrDegraded, cell, cellD2[cell], finalBound)
		}
	}
	return merged, fan, nil
}

// dedupItems removes adjacent duplicates from a canonically sorted item
// slice — the cross-replica copies of one stored item.
func dedupItems(items []core.Item) []core.Item {
	out := items[:0]
	for i, it := range items {
		if i > 0 && core.ItemEq(it, items[i-1]) {
			continue
		}
		out = append(out, it)
	}
	return out
}

// Range reports every item inside box across the cluster, sorted in the
// canonical item order (ID, then coordinates) so the answer is independent
// of sharding and replication. Every cell intersecting the box must be
// covered by an eligible replica (failing replicas are retried on the
// cell's remaining replicas within the request); otherwise ErrDegraded.
// Cross-replica duplicates are removed exactly — the replicated state is a
// set keyed (ID, P).
func (r *Router) Range(ctx context.Context, box geom.Box) ([]core.Item, Fanout, error) {
	if box.Dim() != r.dim() {
		return nil, Fanout{Shards: len(r.shards)}, fmt.Errorf("shard: box dimension %d, cluster dimension %d", box.Dim(), r.dim())
	}
	r.m.rangeRequests.Add(1)
	return r.inRegion(ctx, kd.InBox(box), "range box", func(c context.Context, sh *shardHandle, _ []int) (any, error) {
		return sh.client.Range(c, []geom.Box{box})
	})
}

// inRegion reports every stored item in g across the cluster, canonically
// sorted and deduplicated across replicas: the body of Range and Join.
// Every cell g meets must be covered by an eligible replica, which answers
// through query; otherwise ErrDegraded, whose message names g as what.
func (r *Router) inRegion(ctx context.Context, g kd.Region, what string,
	query func(c context.Context, sh *shardHandle, _ []int) (any, error)) ([]core.Item, Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	lay := r.acquireLayout()
	defer releaseLayout(lay)
	resps, uncovered := r.coverCells(ctx, lay, r.meeting(lay, &g, &fan), map[int]bool{}, map[int]bool{}, true, query)
	fan.Queried = len(resps)
	if len(uncovered) > 0 {
		r.m.degraded.Add(1)
		return nil, fan, fmt.Errorf("%w: cell %d meets the %s and has no in-sync replica", ErrDegraded, uncovered[0], what)
	}
	var all []core.Item
	for _, rp := range resps {
		all = append(all, filterItems(lay.hostedBoxes(rp.sh.id), rp.v.([][]core.Item)[0])...)
	}
	core.SortItems(all)
	return dedupItems(all), fan, nil
}

// meeting returns the cells of lay that may hold points of g and counts
// every other cell as pruned. Range, Join and Aggregate prune through it.
func (r *Router) meeting(lay *layout, g *kd.Region, fan *Fanout) []int {
	var needed []int
	for i := 0; i < lay.part.Cells(); i++ {
		if !g.Meets(lay.part.Cell(i)) {
			fan.Pruned++
			r.m.pruned.Add(1)
			continue
		}
		needed = append(needed, i)
	}
	return needed
}

// Insert stores item on every replica of its owning cell. The call returns
// after all replica attempts settle; a nil error means at least one
// eligible replica durably applied it (in durable shards: after the WAL
// append), so the write survives the loss of any single replica. A dead
// primary does not refuse the write — the surviving replicas ack it
// (failover); replicas that missed it are fenced stale until they resync.
func (r *Router) Insert(ctx context.Context, item core.Item) (Fanout, error) {
	return r.update(ctx, false, item)
}

// Delete removes item from every replica of its owning cell; absent items
// are silently ignored (BatchDelete semantics), which also makes the
// replicated delete idempotent.
func (r *Router) Delete(ctx context.Context, item core.Item) (Fanout, error) {
	return r.update(ctx, true, item)
}

func (r *Router) update(ctx context.Context, del bool, item core.Item) (Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	if len(item.P) != r.dim() {
		return fan, fmt.Errorf("shard: item dimension %d, cluster dimension %d", len(item.P), r.dim())
	}
	r.m.updates.Add(1)
	delta := int64(1)
	if del {
		delta = -1
	}
	items := []core.Item{item}
	_, queried, err := r.fanWrite(ctx, items, delta,
		func(int) MigrateOp { return MigrateOp{Delete: del, Item: item, ExpireAt: UntrackedDeadline} },
		func(c context.Context, sh *shardHandle, _ []int) error {
			_, err := sh.client.Update(c, del, items)
			return err
		})
	fan.Queried = queried
	fan.Pruned = len(r.shards) - queried
	return fan, err
}

// BatchUpdate groups items by owning cell and fans the per-shard unions in
// parallel (each shard gets one call carrying every item of its hosted
// cells). It returns the number of acknowledged items — a cell's items
// count once no matter how many replicas applied them; an error means at
// least one cell's batch was not acked (the count still reflects what was).
func (r *Router) BatchUpdate(ctx context.Context, del bool, items []core.Item) (int, error) {
	dim := r.dim()
	for _, it := range items {
		if len(it.P) != dim {
			return 0, fmt.Errorf("shard: item dimension %d, cluster dimension %d", len(it.P), dim)
		}
	}
	// Count distinct touched cells for observability; the authoritative
	// owner assignment happens inside fanWrite under the write barrier.
	touched := map[int]bool{}
	part := r.lay.Load().part
	for _, it := range items {
		touched[part.Owner(it.P)] = true
	}
	r.m.updates.Add(int64(len(touched)))
	delta := int64(1)
	if del {
		delta = -1
	}
	acked, _, err := r.fanWrite(ctx, items, delta,
		func(i int) MigrateOp { return MigrateOp{Delete: del, Item: items[i], ExpireAt: UntrackedDeadline} },
		func(c context.Context, sh *shardHandle, idxs []int) error {
			batch := make([]core.Item, len(idxs))
			for j, i := range idxs {
				batch[j] = items[i]
			}
			_, err := sh.client.Update(c, del, batch)
			return err
		})
	return acked, err
}

// fanWrite is the replicated write engine: items are grouped by owning cell
// (computed under the write barrier with the then-current layout, so a
// concurrent epoch flip cannot strand a write on a stale owner), and send
// performs one shard's call with the union of indexes for its hosted cells.
// Every healthy replica of every cell is attempted, and the call waits for
// all attempts to settle before judging — so per-key client-serialized
// writes retain one cross-replica order. A cell is acked iff some replica
// that was eligible before the call succeeded; the first such replica in
// placement order is the acting primary (a non-home acting primary counts
// as a failover). Once a cell is acked, every replica that did not apply it
// — failed, or skipped as unhealthy — is fenced stale until it resyncs. A
// cell with no eligible acker yields an error: the eligible replica's own
// refusal if one answered, ErrDegraded if none was available.
//
// During a live migration, acked ops landing in the moving region are
// additionally appended to the migration ledger (via mkOp) so the
// destination replays them on commit; during the brief commit window
// itself, writes bounce with ErrMigrating instead of queueing.
//
// It returns the number of acked items and how many shard calls were made.
func (r *Router) fanWrite(ctx context.Context, items []core.Item, delta int64,
	mkOp func(i int) MigrateOp,
	send func(c context.Context, sh *shardHandle, idxs []int) error) (int, int, error) {
	if r.commitGate.Load() {
		return 0, 0, ErrMigrating
	}
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	lay := r.lay.Load()
	cells := map[int][]int{}
	for i, it := range items {
		cell := lay.part.Owner(it.P)
		cells[cell] = append(cells[cell], i)
	}

	type writeCall struct {
		sh   *shardHandle
		idxs []int
		elig bool
		err  error
	}
	calls := map[int]*writeCall{}
	for cell, idxs := range cells {
		for _, rep := range lay.pl.Replicas(cell) {
			sh := r.shards[rep]
			if !sh.healthy.Load() {
				continue
			}
			wc := calls[rep]
			if wc == nil {
				wc = &writeCall{sh: sh, elig: r.eligible(sh)}
				calls[rep] = wc
			}
			// Cells are disjoint per item, so the union never duplicates.
			wc.idxs = append(wc.idxs, idxs...)
		}
	}
	var wg sync.WaitGroup
	for _, wc := range calls {
		wg.Add(1)
		go func(wc *writeCall) {
			defer wg.Done()
			sort.Ints(wc.idxs)
			_, wc.err = r.callShard(ctx, wc.sh, func(c context.Context) (any, error) {
				return nil, send(c, wc.sh, wc.idxs)
			})
			if wc.err == nil && wc.sh.count.Add(int64(len(wc.idxs))*delta) < 0 {
				wc.sh.count.Store(0)
			}
		}(wc)
	}
	wg.Wait()

	acked := 0
	var firstErr error
	for cell, idxs := range cells {
		ackedBy := -1
		var eligErr error
		for _, rep := range lay.pl.Replicas(cell) {
			wc := calls[rep]
			if wc == nil {
				continue // skipped: unhealthy
			}
			if !wc.elig {
				continue
			}
			if wc.err == nil {
				if ackedBy < 0 {
					ackedBy = rep
				}
			} else if eligErr == nil {
				eligErr = wc.err
			}
		}
		if ackedBy >= 0 {
			acked += len(idxs)
			if ackedBy != lay.pl.Primary(cell) {
				r.m.failovers.Add(1)
			}
			for _, rep := range lay.pl.Replicas(cell) {
				if wc := calls[rep]; wc == nil || wc.err != nil {
					// This replica missed an acked write: fence it from
					// reads until a post-miss resync pass completes. The
					// fence is evidenced — the shard must converge against
					// a peer, never fall back to its own (now provably
					// incomplete) state — and the nudge goes out now, so
					// the shard withdraws its sync claim (and stops acting
					// as a rebuild source for peers) as soon as it can be
					// reached instead of a probe interval later.
					if r.shards[rep].markStale(true) {
						r.m.staleMarks.Add(1)
					}
					r.nudgeIfNeeded(r.shards[rep])
				}
			}
			// Dual-write: an acked op landing inside the moving region is
			// recorded in the migration ledger so the destination replays it
			// on commit. The ledger was opened under migMu.Lock before any
			// destination pulled its cut and we hold migMu.RLock now, so
			// every acked write is in cut ∪ ledger — none can slip between.
			if mig := r.mig; mig != nil && cell == mig.cell && mkOp != nil {
				for _, i := range idxs {
					if op := mkOp(i); mig.box.ContainsHalfOpen(op.Item.P) {
						mig.append(op)
					}
				}
			}
			continue
		}
		err := eligErr
		if err == nil {
			err = fmt.Errorf("%w: cell %d has no in-sync replica to ack the write", ErrDegraded, cell)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if errors.Is(firstErr, ErrDegraded) {
			r.m.degraded.Add(1)
		} else {
			r.m.errors.Add(1)
		}
	}
	return acked, len(calls), firstErr
}

// ReplicaStatus is one replica's health in a cell's row.
type ReplicaStatus struct {
	Shard    int  `json:"shard"`
	Healthy  bool `json:"healthy"`
	Synced   bool `json:"synced"`
	Stale    bool `json:"stale"`
	Eligible bool `json:"eligible"`
}

// CellStatus is one partition cell's replica health row: the home primary,
// the acting primary (first eligible replica in failover order, -1 when
// the cell has none and is unavailable), and every replica's state.
type CellStatus struct {
	Cell          int             `json:"cell"`
	Primary       int             `json:"primary"`
	ActingPrimary int             `json:"acting_primary"`
	Replicas      []ReplicaStatus `json:"replicas"`
}

// Cells returns the per-cell replica health view for /shardz.
func (r *Router) Cells() []CellStatus {
	lay := r.lay.Load()
	out := make([]CellStatus, lay.pl.NumCells())
	for cell := range out {
		cs := CellStatus{Cell: cell, Primary: lay.pl.Primary(cell), ActingPrimary: -1}
		for _, rep := range lay.pl.Replicas(cell) {
			sh := r.shards[rep]
			rs := ReplicaStatus{
				Shard:   rep,
				Healthy: sh.healthy.Load(),
				Synced:  sh.synced.Load(),
				Stale:   sh.isStale(),
			}
			rs.Eligible = rs.Healthy && rs.Synced && !rs.Stale
			if rs.Eligible && cs.ActingPrimary < 0 {
				cs.ActingPrimary = rep
			}
			cs.Replicas = append(cs.Replicas, rs)
		}
		out[cell] = cs
	}
	return out
}

// ShardStatus is one shard's row in the router's membership view.
type ShardStatus struct {
	ID      int    `json:"id"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// Synced is the shard's own sync claim (it holds every acked write of
	// its hosted cells); SyncGen counts its completed convergence passes.
	Synced  bool   `json:"synced"`
	SyncGen uint64 `json:"sync_gen"`
	// Stale marks a shard the router fenced from reads because it missed
	// (or may have missed) an acked write; it unfences after a resync.
	Stale bool `json:"stale"`
	// Cells are the partition cells this shard hosts replicas of.
	Cells []int `json:"cells"`
	// Count is the router's live point count estimate (probe-refreshed),
	// counting every hosted replica's copy.
	Count int64 `json:"count"`
	// Drift is Count over the mean count; > Config.RebalanceThreshold
	// flags the shard as a rebalance candidate.
	Drift     float64 `json:"drift"`
	Rebalance bool    `json:"rebalance_candidate"`
	// WireOut/WireIn are cumulative wire bytes to/from this shard.
	WireOut int64 `json:"wire_bytes_out"`
	WireIn  int64 `json:"wire_bytes_in"`
}

// Status returns the live membership view: per-shard health, sync and
// stale state, hosted cells, point counts, drift ratios, and
// rebalance-candidate flags.
func (r *Router) Status() []ShardStatus {
	lay := r.lay.Load()
	counts := make([]int64, len(r.shards))
	for i, sh := range r.shards {
		counts[i] = sh.count.Load()
	}
	drift := DriftRatios(counts)
	out := make([]ShardStatus, len(r.shards))
	for i, sh := range r.shards {
		wo, wi := sh.client.WireBytes()
		out[i] = ShardStatus{
			ID:        sh.id,
			Addr:      sh.client.Addr(),
			Healthy:   sh.healthy.Load(),
			Synced:    sh.synced.Load(),
			SyncGen:   sh.syncGen.Load(),
			Stale:     sh.isStale(),
			Cells:     lay.pl.CellsOf(sh.id),
			Count:     counts[i],
			Drift:     drift[i],
			Rebalance: drift[i] > r.cfg.RebalanceThreshold,
			WireOut:   wo,
			WireIn:    wi,
		}
	}
	return out
}

// MetricsSnapshot is the router's aggregate counter view for /statsz.
type MetricsSnapshot struct {
	KNNRequests   int64 `json:"knn_requests"`
	RangeRequests int64 `json:"range_requests"`
	JoinRequests  int64 `json:"join_requests"`
	AggRequests   int64 `json:"agg_requests"`
	Ingests       int64 `json:"ingests"`
	Expires       int64 `json:"expires"`
	Updates       int64 `json:"updates"`
	Degraded      int64 `json:"degraded"`
	Errors        int64 `json:"errors"`
	ShardCalls    int64 `json:"shard_calls"`
	Pruned        int64 `json:"pruned_cell_visits"`
	// Hedges is always 0: reads make one attempt per replica and fail over
	// within the request. The field stays for readers of the JSON shape.
	Hedges int64 `json:"hedges"`
	// Failovers counts cell writes acked while the home primary did not
	// apply them (the acting primary was a non-home replica).
	Failovers int64 `json:"failovers"`
	// StaleMarks counts shards fenced for missing an acked write (or
	// reviving after being routed around); ResyncNudges counts the resync
	// requests sent to fenced shards.
	StaleMarks   int64 `json:"stale_marks"`
	ResyncNudges int64 `json:"resync_nudges"`
	// Sweeps counts completed anti-entropy rounds; SweepMismatches counts
	// replicas a confirmation pass evidenced-fenced for stable divergence;
	// SweepTies counts cells whose confirmation vote had no unique majority
	// digest (broken deterministically to the placement-first holder).
	Sweeps          int64 `json:"sweeps"`
	SweepMismatches int64 `json:"sweep_mismatches"`
	SweepTies       int64 `json:"sweep_ties"`
	// Rebalances counts committed cell split+migrations; MigratedPoints the
	// cut points they moved; MigrateAborts the migrations abandoned without
	// a flip (ledger overflow, stage or commit failure — source stays
	// authoritative, nothing is lost).
	Rebalances     int64 `json:"rebalances"`
	MigratedPoints int64 `json:"migrated_points"`
	MigrateAborts  int64 `json:"migrate_aborts"`
	// Epoch is the current placement epoch (starts at 1, +1 per committed
	// migration); Cells the current partition cell count.
	Epoch        uint64 `json:"placement_epoch"`
	Cells        int    `json:"cells"`
	WireBytesOut int64  `json:"wire_bytes_out"`
	WireBytesIn  int64  `json:"wire_bytes_in"`
	// Replication is the effective copies-per-cell factor.
	Replication   int `json:"replication"`
	HealthyShards int `json:"healthy_shards"`
	SyncedShards  int `json:"synced_shards"`
	StaleShards   int `json:"stale_shards"`
	TotalShards   int `json:"total_shards"`
	// TotalPoints estimates distinct stored points (replica copies divided
	// out); ReplicaPoints is the raw per-shard sum.
	TotalPoints   int64 `json:"total_points"`
	ReplicaPoints int64 `json:"replica_points"`
}

// Metrics returns the aggregate router counters.
func (r *Router) Metrics() MetricsSnapshot {
	lay := r.lay.Load()
	s := MetricsSnapshot{
		KNNRequests:     r.m.knnRequests.Load(),
		RangeRequests:   r.m.rangeRequests.Load(),
		JoinRequests:    r.m.joinRequests.Load(),
		AggRequests:     r.m.aggRequests.Load(),
		Ingests:         r.m.ingests.Load(),
		Expires:         r.m.expires.Load(),
		Updates:         r.m.updates.Load(),
		Degraded:        r.m.degraded.Load(),
		Errors:          r.m.errors.Load(),
		ShardCalls:      r.m.shardCalls.Load(),
		Pruned:          r.m.pruned.Load(),
		Failovers:       r.m.failovers.Load(),
		StaleMarks:      r.m.staleMarks.Load(),
		ResyncNudges:    r.m.resyncNudges.Load(),
		Sweeps:          r.m.sweeps.Load(),
		SweepMismatches: r.m.sweepMismatch.Load(),
		SweepTies:       r.m.sweepTies.Load(),
		Rebalances:      r.m.rebalances.Load(),
		MigratedPoints:  r.m.migratedPts.Load(),
		MigrateAborts:   r.m.migrateAborts.Load(),
		Epoch:           lay.epoch,
		Cells:           lay.pl.NumCells(),
		Replication:     lay.pl.Replication(),
		TotalShards:     len(r.shards),
	}
	for _, sh := range r.shards {
		if sh.healthy.Load() {
			s.HealthyShards++
		}
		if sh.synced.Load() {
			s.SyncedShards++
		}
		if sh.isStale() {
			s.StaleShards++
		}
		s.ReplicaPoints += sh.count.Load()
		wo, wi := sh.client.WireBytes()
		s.WireBytesOut += wo
		s.WireBytesIn += wi
	}
	s.TotalPoints = s.ReplicaPoints / int64(lay.pl.Replication())
	return s
}
