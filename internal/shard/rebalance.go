package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pimkd/internal/geom"
)

// This file is the online rebalancer: the router-driven control loop that
// watches per-cell point counts, picks the most overloaded cell past
// Config.RebalanceThreshold, computes a new kd-split plane from a sampled
// quantile, and migrates the moving half live — without ever violating the
// read contract (answers stay bit-identical to a single tree holding the
// cluster's points) or losing an acked write.
//
// The protocol, end to end:
//
//  1. Sample per-cell counts from each cell's acting primary (the same
//     CellChecksum probe anti-entropy uses). Shard load is the sum over its
//     hosted cells; if max/mean drift stays under the threshold, done.
//  2. Plan: split the worst shard's largest cell at a sampled quantile
//     (strided CellSnapshot pages over one consistent cut → ChooseSplit),
//     and place the moving half on the R least-loaded shards.
//  3. Open the write ledger under the write barrier (migMu). From here every
//     acked write in the moving region is ledgered, so any cut of the
//     region pinned later, with the ledger replayed on top, is exactly the
//     acked state — none can fall between them.
//  4. Stage: over a pinned Session, send each destination one MigrateBegin
//     naming the source. The destination pulls the moving region's cut from
//     the source itself — the same paged, total-checked pull a peer rebuild
//     uses — and holds it on the conn; a torn pull applies nothing. The
//     router never holds the cut.
//  5. Commit window: close the gate (writes bounce with ErrMigrating
//     instead of queueing), take the barrier, replay the ledger into each
//     destination's MigrateCommit (server-side ordered replay + exact-set),
//     and flip the layout epoch atomically. Drain old-epoch readers before
//     reopening writes — an old-layout plan may still be reading the moving
//     region from a source replica that stopped seeing writes at the flip.
//  6. Purge the moved region from old replicas that no longer own it
//     (exact-set-to-empty over the same migration wire path). Until a purge
//     lands, the leftover points are strays: the read-side ownership filter
//     makes them invisible, so purging is cleanup, not correctness.
//
// Every abort path (ledger overflow, stage failure, commit failure) leaves
// the source authoritative and the epoch unflipped; a partially committed
// destination holds only read-filtered strays and is queued for purge.

// minSplitPoints is the smallest cell the planner will split — below this
// a split moves too little to matter and the sampled quantile is noise.
const minSplitPoints = 16

// migLedgerCap bounds the dual-write ledger. A migration whose racing
// write volume exceeds it aborts (nothing applied, source authoritative)
// rather than replaying an unbounded tail at commit.
const migLedgerCap = 1 << 16

// migLedger captures writes racing a migration: every acked op landing in
// the moving region between the ledger's opening and the commit, in ack
// order. fanWrite appends under migMu.RLock; the committer takes the ops
// under migMu.Lock, so the snapshot is quiescent.
type migLedger struct {
	cell int      // source cell being split
	box  geom.Box // moving half (the new cell's half-open box)
	mu   sync.Mutex
	ops  []MigrateOp
	full bool
}

func (l *migLedger) append(op MigrateOp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return
	}
	if len(l.ops) >= migLedgerCap {
		l.full = true
		return
	}
	l.ops = append(l.ops, op)
}

// dirtyRegion is a moved (or abandoned-stage) region a shard still holds
// but no longer owns, queued for an exact-set-to-empty purge. Router-memory
// only: a router restart forgets pending purges and the strays persist
// until the region migrates again — harmless for reads (the ownership
// filter hides them) but documented as a limitation.
type dirtyRegion struct {
	cell int
	box  geom.Box
}

// CellCount is one cell's live point count as sampled from its acting
// primary — the /shardz per-cell load view.
type CellCount struct {
	Cell  int    `json:"cell"`
	Shard int    `json:"shard"`
	Count uint64 `json:"count"`
}

// rebalState is the rebalancer's cross-tick state. dirty and lastCounts
// are guarded by mu; runMu serializes whole rebalance passes (the ticker
// skips a tick that would overlap a slow migration) and every
// markDirty/drainDirty call, so a drain's read-purge-writeback cycle can
// never lose a region queued concurrently.
type rebalState struct {
	mu    sync.Mutex
	runMu sync.Mutex
	dirty map[int][]dirtyRegion
	// lastCounts/lastEpoch are the most recent successful per-cell sample
	// and the layout epoch it was taken under. CellCounts falls back to the
	// cache only while the epoch still matches: a sample from an older
	// geometry has a different cell set and shard mapping, and showing it
	// after a flip would misattribute load.
	lastCounts []CellCount
	lastEpoch  uint64
}

// migrating reports whether a migration ledger is open (stage through
// commit). The anti-entropy sweep pauses while true: a mid-migration flip
// would let a sweep round mix epochs and evidence-fence healthy replicas.
func (r *Router) migrating() bool {
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	return r.mig != nil
}

// purgesPending reports whether any moved region still awaits its purge.
func (r *Router) purgesPending() bool {
	r.rb.mu.Lock()
	defer r.rb.mu.Unlock()
	return len(r.rb.dirty) > 0
}

// pendingPurgeOn reports whether any of the given shards still holds a
// queued stray purge. The planner refuses to involve such a shard in a new
// migration: as cut source its strays could sit inside the new moving box
// and resurrect deleted points into the cut; as destination the committed
// new cell's box could overlap the queued region, handing the later purge
// legitimately owned points to destroy.
func (r *Router) pendingPurgeOn(shards ...int) bool {
	r.rb.mu.Lock()
	defer r.rb.mu.Unlock()
	for _, s := range shards {
		if len(r.rb.dirty[s]) > 0 {
			return true
		}
	}
	return false
}

// purgeBlocksExpiry reports whether a pending stray purge sits on a shard
// that would otherwise pass Expire's eligibility gate. Such a shard would
// sweep its strays' TTL entries and break the exact-multiple-of-R count
// check, so Expire bounces with ErrMigrating — bounded, because the shard
// is reachable and the next drain clears the purge. Purges stranded on
// INELIGIBLE shards deliberately do not count: those shards fail the
// eligibility gate on their own, and gating here too would convert that
// honest ErrDegraded into an eternal ErrMigrating (TTL'd data piling up
// cluster-wide) for as long as one crashed node stays down.
func (r *Router) purgeBlocksExpiry() bool {
	r.rb.mu.Lock()
	defer r.rb.mu.Unlock()
	for sid := range r.rb.dirty {
		if r.eligible(r.shards[sid]) {
			return true
		}
	}
	return false
}

// CellCounts samples every cell's live point count from its acting primary
// (best-effort: on a sampling failure the last successful sample is
// returned, but only if it was taken under the current layout epoch — a
// cached sample from an older geometry would show a mismatched cell set).
// The slice is ordered by cell; nil means no current sample exists.
func (r *Router) CellCounts(ctx context.Context) []CellCount {
	lay := r.lay.Load()
	counts, err := r.sampleCellCounts(ctx, lay)
	if err != nil {
		r.rb.mu.Lock()
		defer r.rb.mu.Unlock()
		if r.rb.lastEpoch != lay.epoch {
			return nil
		}
		return append([]CellCount(nil), r.rb.lastCounts...)
	}
	return counts
}

// sampleCellCounts fetches one checksum per cell from the cell's acting
// primary, grouping cells per shard so each shard answers one probe. It
// refreshes rb.lastCounts on success.
func (r *Router) sampleCellCounts(ctx context.Context, lay *layout) ([]CellCount, error) {
	n := lay.pl.NumCells()
	perShard := map[int][]int{}
	for cell := 0; cell < n; cell++ {
		acting := -1
		for _, rep := range lay.pl.Replicas(cell) {
			if r.eligible(r.shards[rep]) {
				acting = rep
				break
			}
		}
		if acting < 0 {
			return nil, fmt.Errorf("%w: cell %d has no eligible replica to sample", ErrDegraded, cell)
		}
		perShard[acting] = append(perShard[acting], cell)
	}
	sums, err := r.probeChecksums(ctx, lay, perShard)
	if err != nil {
		return nil, err
	}
	out := make([]CellCount, n)
	for shard, cells := range perShard {
		for i, c := range cells {
			out[c] = CellCount{Cell: c, Shard: shard, Count: sums[shard][i].Count}
		}
	}
	r.rb.mu.Lock()
	r.rb.lastCounts = append([]CellCount(nil), out...)
	r.rb.lastEpoch = lay.epoch
	r.rb.mu.Unlock()
	return out, nil
}

// migPlan is one planned split+migration.
type migPlan struct {
	cell  int   // cell to split
	src   int   // acting primary of cell — the cut source
	dests []int // replica set for the new (moving) cell
}

// planSplit decides whether (and how) to rebalance: shard load is the sum
// of its hosted cells' sampled counts; when the max/mean drift exceeds the
// threshold, the worst shard's largest hosted cell is split and the moving
// half placed on the R least-loaded eligible shards.
func (r *Router) planSplit(lay *layout, counts []CellCount) (migPlan, bool) {
	loads := make([]uint64, len(r.shards))
	var total uint64
	for _, cc := range counts {
		for _, rep := range lay.pl.Replicas(cc.Cell) {
			loads[rep] += cc.Count
		}
		total += cc.Count
	}
	if total == 0 {
		return migPlan{}, false
	}
	mean := float64(total) * float64(lay.pl.Replication()) / float64(len(r.shards))
	worst, worstLoad := -1, uint64(0)
	for s, l := range loads {
		if l > worstLoad || (l == worstLoad && worst < 0) {
			worst, worstLoad = s, l
		}
	}
	if float64(worstLoad) <= r.cfg.RebalanceThreshold*mean {
		return migPlan{}, false
	}

	// The worst shard's largest hosted cell is the one worth moving half of.
	cell, cellCount := -1, uint64(0)
	for _, cc := range counts {
		if cc.Count >= cellCount && cc.Count >= minSplitPoints && lay.pl.Hosts(cc.Cell, worst) {
			cell, cellCount = cc.Cell, cc.Count
		}
	}
	if cell < 0 {
		return migPlan{}, false
	}

	// Destinations: the R least-loaded eligible shards (stable tie-break by
	// id). If that set equals the cell's current replicas, a split would
	// move no load — skip.
	type loaded struct {
		shard int
		load  uint64
	}
	var elig []loaded
	for s, l := range loads {
		if r.eligible(r.shards[s]) {
			elig = append(elig, loaded{s, l})
		}
	}
	rf := lay.pl.Replication()
	if len(elig) < rf {
		return migPlan{}, false
	}
	sort.Slice(elig, func(i, j int) bool {
		if elig[i].load != elig[j].load {
			return elig[i].load < elig[j].load
		}
		return elig[i].shard < elig[j].shard
	})
	dests := make([]int, rf)
	for i := range dests {
		dests[i] = elig[i].shard
	}
	cur := map[int]bool{}
	for _, rep := range lay.pl.Replicas(cell) {
		cur[rep] = true
	}
	same := len(cur) == len(dests)
	for _, d := range dests {
		if !cur[d] {
			same = false
		}
	}
	if same {
		return migPlan{}, false
	}

	src := -1
	for _, cc := range counts {
		if cc.Cell == cell {
			src = cc.Shard
		}
	}
	if src < 0 {
		return migPlan{}, false
	}
	return migPlan{cell: cell, src: src, dests: dests}, true
}

// rebalanceLoop drives RebalanceOnce on the configured cadence.
func (r *Router) rebalanceLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.RebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
			_, _, _ = r.RebalanceOnce(r.runCtx)
		}
	}
}

// RebalanceOnce runs one full rebalancer pass: retry pending purges, sample
// per-cell loads, and — when the drift threshold is exceeded — split the
// hottest cell and live-migrate the moving half. It returns the number of
// cut points moved and whether a migration committed (false, nil for a
// quiet pass). Concurrent passes are serialized; an overlapping call
// returns immediately.
func (r *Router) RebalanceOnce(ctx context.Context) (int64, bool, error) {
	if !r.rb.runMu.TryLock() {
		return 0, false, nil
	}
	defer r.rb.runMu.Unlock()

	// Pending purges are retried first: a region queued on a reachable
	// shard clears in one exact-set round. A purge stranded on an
	// unreachable shard must NOT wedge the rebalancer — the cluster would
	// stop adapting because one node crashed — so the pass proceeds and the
	// plan below simply refuses to involve a shard that still holds
	// un-purged strays.
	if r.purgesPending() {
		r.drainDirty(ctx)
	}

	lay := r.lay.Load()
	counts, err := r.sampleCellCounts(ctx, lay)
	if err != nil {
		return 0, false, err
	}
	plan, ok := r.planSplit(lay, counts)
	if !ok {
		return 0, false, nil
	}
	// A dirty shard can be neither cut source nor destination
	// (pendingPurgeOn explains both hazards). Dead shards are never planned
	// in the first place — the source is an acting primary and destinations
	// are eligibility-filtered — so a stranded purge skips at most the
	// shards it lives on, never the whole pass.
	if r.pendingPurgeOn(append([]int{plan.src}, plan.dests...)...) {
		return 0, false, nil
	}
	moved, err := r.migrate(ctx, lay, plan)
	if err != nil {
		r.m.migrateAborts.Add(1)
		return 0, false, err
	}
	r.m.rebalances.Add(1)
	r.m.migratedPts.Add(moved)
	return moved, true, nil
}

// sampleSplitPoints pulls a strided sample of the cell over one consistent
// cut (8 chunks of 256 spread across the cell's snapshot order) — enough
// for ChooseSplit's median without paging the whole cell — and returns it
// with the cell's total item count.
func (r *Router) sampleSplitPoints(ctx context.Context, src *shardHandle, cell int, box geom.Box) ([]geom.Point, uint64, error) {
	sess, err := src.client.NewSession(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer sess.Close()
	const chunks, chunk = 8, 256
	var pts []geom.Point
	var total uint64
	for i := 0; i < chunks; i++ {
		off := uint64(0)
		if i > 0 {
			off = total * uint64(i) / chunks
		}
		cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		r.m.shardCalls.Add(1)
		page, err := sess.CellSnapshot(cctx, cell, box, off, chunk)
		cancel()
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			total = page.Total
		} else if page.Total != total {
			return nil, 0, fmt.Errorf("shard %d: cell %d moved under the split sample (%d != %d items)",
				src.id, cell, page.Total, total)
		}
		for _, it := range page.Items {
			pts = append(pts, it.P)
		}
		if total <= chunk {
			break // one page held everything
		}
	}
	return pts, total, nil
}

// migrate executes one planned split+migration end to end. On any error
// the epoch is left unflipped and the source authoritative; destinations
// that already committed are queued for purge (their staged region is a
// read-filtered stray until then).
func (r *Router) migrate(ctx context.Context, lay *layout, plan migPlan) (int64, error) {
	src := r.shards[plan.src]

	// Choose the split plane from a sampled quantile of the full cell.
	pts, total, err := r.sampleSplitPoints(ctx, src, plan.cell, lay.part.Cell(plan.cell))
	if err != nil {
		return 0, fmt.Errorf("split sample: %w", err)
	}
	axis, value, ok := ChooseSplit(pts)
	if !ok {
		return 0, fmt.Errorf("cell %d: no splittable axis in %d sampled points", plan.cell, len(pts))
	}
	part2, err := lay.part.SplitCell(plan.cell, axis, value)
	if err != nil {
		return 0, fmt.Errorf("split cell %d: %w", plan.cell, err)
	}
	newCell := part2.Cells() - 1
	movingBox := part2.Cell(newCell)
	pl2, err := lay.pl.WithCell(plan.dests)
	if err != nil {
		return 0, fmt.Errorf("place cell %d: %w", newCell, err)
	}
	epoch2 := lay.epoch + 1

	// Open the dual-write ledger under the barrier BEFORE any destination
	// pulls its cut: from here, every acked write in the moving region is
	// ledgered, and each destination's cut (pinned at its first page)
	// catches everything earlier.
	ledger := &migLedger{cell: plan.cell, box: movingBox}
	r.migMu.Lock()
	r.mig = ledger
	r.migMu.Unlock()

	// Every exit hands back the destinations' pinned conns: a committed
	// migration's to the pool, any other's closed, which discards its stage.
	var sessions []*Session
	committed := false
	defer func() {
		for _, s := range sessions {
			if committed {
				s.Close()
			} else {
				s.Abort()
			}
		}
	}()

	// Stage: every destination pulls the moving box from the source over
	// its own pinned session. The call lasts the destination's whole pull,
	// so its deadline is one Timeout per page the sampled cell total
	// implies, plus one: a hung destination aborts the migration instead of
	// holding the ledger open.
	pages := (total + uint64(r.cfg.MigratePageSize) - 1) / uint64(r.cfg.MigratePageSize)
	stageTimeout := r.cfg.Timeout * time.Duration(pages+1)
	var moved int64
	for i, dest := range plan.dests {
		sess, err := r.shards[dest].client.NewSession(ctx)
		var staged uint64
		if err == nil {
			sessions = append(sessions, sess)
			cctx, cancel := context.WithTimeout(ctx, stageTimeout)
			r.m.shardCalls.Add(1)
			staged, err = sess.MigrateBegin(cctx, epoch2, newCell, movingBox, src.client.Addr(), r.cfg.MigratePageSize)
			cancel()
		}
		if err != nil {
			r.migMu.Lock()
			r.mig = nil
			r.migMu.Unlock()
			return 0, fmt.Errorf("stage to shard %d: %w", dest, err)
		}
		if i == 0 {
			moved = int64(staged) // the new cell's primary copy
		}
	}

	// Commit window: gate writes out (they bounce with ErrMigrating rather
	// than pile up on the lock), quiesce in-flight ones, and commit.
	r.commitGate.Store(true)
	r.migMu.Lock()
	var commitErr error
	failedAt := -1
	if ledger.full {
		commitErr = fmt.Errorf("cell %d: migration ledger overflowed (%d+ racing writes), aborted", plan.cell, migLedgerCap)
	}
	for i := 0; commitErr == nil && i < len(plan.dests); i++ {
		cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		r.m.shardCalls.Add(1)
		_, err := sessions[i].MigrateCommit(cctx, epoch2, newCell, ledger.ops)
		cancel()
		if err != nil {
			commitErr, failedAt = fmt.Errorf("commit to shard %d: %w", plan.dests[i], err), i
		}
	}
	if commitErr != nil {
		r.mig = nil
		r.migMu.Unlock()
		r.commitGate.Store(false)
		if failedAt < 0 {
			return 0, commitErr // the ledger overflowed: nothing committed
		}
		// No flip happened: the source stays authoritative. Destinations
		// that committed (and the failed one, whose apply may have landed
		// before the error) now hold the staged region as strays — queue a
		// purge for every destination that is not also a source replica (a
		// source replica's "stray" is its own authoritative content). The
		// failed destination is additionally fenced: its state is unknown
		// until a resync pass converges it.
		oldReps := map[int]bool{}
		for _, rep := range lay.pl.Replicas(plan.cell) {
			oldReps[rep] = true
		}
		for _, dest := range plan.dests {
			if !oldReps[dest] {
				r.markDirty(dest, dirtyRegion{cell: newCell, box: movingBox})
			}
		}
		failed := r.shards[plan.dests[failedAt]]
		if failed.markStale(true) {
			r.m.staleMarks.Add(1)
		}
		r.nudgeIfNeeded(failed)
		r.drainDirty(ctx)
		return 0, commitErr
	}

	// Flip: one atomic pointer swap installs the next epoch. Writers still
	// drain RLock-acquired sections against the OLD layout until we release
	// the barrier, but they recompute owners from r.lay inside the lock, so
	// none is in flight across the swap.
	oldLay := lay
	r.lay.Store(newLayout(part2, pl2, epoch2))
	r.mig = nil
	r.migMu.Unlock()

	// Drain old-epoch read plans before reopening writes: such a plan may
	// still be reading the moving region from a source replica, which stops
	// seeing that region's writes as of the flip. Only after the last one
	// finishes is it safe to mutate the moved region on its new home.
	for oldLay.readers.Load() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
	r.commitGate.Store(false)
	committed = true

	// The moved region on source replicas that do not host the new cell is
	// now stray state: queue and attempt its purge.
	for _, rep := range lay.pl.Replicas(plan.cell) {
		if !pl2.Hosts(newCell, rep) {
			r.markDirty(rep, dirtyRegion{cell: newCell, box: movingBox})
		}
	}
	r.drainDirty(ctx)
	return moved, nil
}

// markDirty queues a stray region for purge. The caller must hold
// rb.runMu (the rebalancer holds it for the whole pass; Expire's inline
// drain TryLocks it), which serializes every dirty-map mutation against
// drainDirty's read-purge-writeback cycle; readers take rb.mu.
func (r *Router) markDirty(shard int, reg dirtyRegion) {
	r.rb.mu.Lock()
	defer r.rb.mu.Unlock()
	r.rb.dirty[shard] = append(r.rb.dirty[shard], reg)
}

// drainDirty retries every pending purge once; failures (and unreachable
// shards) stay queued for the next pass. The caller must hold rb.runMu —
// see markDirty.
func (r *Router) drainDirty(ctx context.Context) {
	r.rb.mu.Lock()
	pending := make(map[int][]dirtyRegion, len(r.rb.dirty))
	for s, regs := range r.rb.dirty {
		pending[s] = append([]dirtyRegion(nil), regs...)
	}
	r.rb.mu.Unlock()
	epoch := r.Epoch()
	for sid, regs := range pending {
		sh := r.shards[sid]
		var remain []dirtyRegion
		for _, reg := range regs {
			if !sh.healthy.Load() {
				remain = append(remain, reg)
				continue
			}
			if err := r.purgeRegion(ctx, sh, epoch, reg); err != nil {
				remain = append(remain, reg)
			}
		}
		r.rb.mu.Lock()
		if len(remain) == 0 {
			delete(r.rb.dirty, sid)
		} else {
			r.rb.dirty[sid] = remain
		}
		r.rb.mu.Unlock()
	}
}

// purgeRegion exact-sets a stray region to empty on sh — the same
// migration wire path with an empty stage: a Begin with no source + a
// Commit with no ops, which the shard applies as "this box now holds
// nothing".
func (r *Router) purgeRegion(ctx context.Context, sh *shardHandle, epoch uint64, reg dirtyRegion) error {
	sess, err := sh.client.NewSession(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	r.m.shardCalls.Add(2)
	if _, err := sess.MigrateBegin(cctx, epoch, reg.cell, reg.box, "", 0); err != nil {
		return err
	}
	_, err = sess.MigrateCommit(cctx, epoch, reg.cell, nil)
	return err
}
