package serve

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
)

// runExecutor is the scheduling loop. It is the only goroutine that touches
// the tree, so batches — and in particular the partial reconstructions
// performed by update batches — are serialized: a read batch either runs
// entirely before or entirely after any rebuild, never across one.
//
// Epochs make that ordering observable: consecutive read batches share an
// epoch number, while every write batch closes the current epoch and takes
// a fresh one of its own, so two requests with the same epoch are
// guaranteed to have seen the identical tree version.
//
// After each batch the executor seals whatever formed while it ran
// (sealIdle), so the batch width follows its own service time.
func (s *Service) runExecutor() {
	defer close(s.done)
	// Detach the tracer before done is signalled so a caller regaining
	// ownership of the tree after Close gets an unobserved machine back.
	defer func() {
		if s.tracer != nil {
			s.tree.Machine().SetObserver(nil)
		}
	}()
	// Durable-write drain (runs first): by the time the batch channel is
	// closed and drained, every acknowledged write is logged and committed;
	// finish any in-flight checkpoint and sync the WAL before signalling
	// done, so Close returning means the durable state is settled on disk.
	defer s.drainPersist()
	var (
		epoch        int64 = 1
		lastWasWrite bool
	)
	for b := range s.batchCh {
		write := !b.key.kind.IsRead()
		if write || lastWasWrite {
			epoch++
		}
		lastWasWrite = write
		s.execute(b, epoch)
		s.sealIdle()
	}
}

// execute runs one sealed batch against the tree, brackets it with machine
// snapshots for cost attribution, records metrics, and fans the results
// back to the per-request futures (releasing their admission tokens).
func (s *Service) execute(b *batch, epoch int64) {
	// Honor per-request contexts through to execution: callers that gave up
	// while the batch sat in the queue are answered (ctx error) and their
	// admission slots released without charging the machine for them.
	live := b.reqs[:0]
	for _, req := range b.reqs {
		if req.ctx != nil && req.ctx.Err() != nil {
			s.metrics.canceled()
			req.done <- reply{err: req.ctx.Err()}
			<-s.tokens
			continue
		}
		live = append(live, req)
	}
	b.reqs = live
	if len(b.reqs) == 0 {
		return
	}

	write := !b.key.kind.IsRead()
	mach := s.tree.Machine()
	s.batchSeq++
	// Scope every round this batch triggers under a batch-identifying
	// label (see kinds), so the tracer (or any observer) attributes
	// per-round cost — stragglers included — to the exact batch that
	// caused it.
	label := fmt.Sprintf(kinds[b.key.kind].label, b.key.k, s.batchSeq)
	pop := mach.PushLabel(label)
	mach.SnapshotStatsInto(&s.pre)
	results, err := s.runBatchSafe(b)
	mach.SnapshotStatsInto(&s.post)
	s.post.SubInto(s.pre, &s.post) // post now holds the batch's delta
	delta := s.post
	pop()

	rec := BatchRecord{
		Epoch:       epoch,
		Kind:        b.key.kind.String(),
		K:           b.key.k,
		Size:        len(b.reqs),
		Linger:      b.sealed.Sub(b.firstEnq),
		SealedBy:    b.sealedBy,
		Cost:        delta.Stats,
		CommBalance: pim.MaxLoadRatio(delta.ModuleComm),
	}
	s.metrics.record(rec)
	if s.cfg.OnBatch != nil {
		s.cfg.OnBatch(rec)
	}

	info := BatchInfo{
		Epoch:  epoch,
		Kind:   rec.Kind,
		Size:   rec.Size,
		Linger: rec.Linger,
		Cost:   rec.Cost,
	}
	if write && err == nil {
		// Refresh the lock-free size mirror while the executor still owns
		// the tree, and before any reply: a caller whose write was acked
		// must read a TreeSize that includes it.
		s.size.Store(int64(s.tree.Size()))
	}
	now := time.Now()
	for i, req := range b.reqs {
		rep := reply{info: info, err: err}
		if err == nil && results != nil {
			rep = results[i]
			rep.info = info
		}
		// Service-side latency: admission to reply delivery, the quantity
		// /statsz quantiles report per kind.
		s.metrics.observeLatency(rec.Kind, now.Sub(req.enq))
		req.done <- rep // buffered, never blocks
		<-s.tokens      // release the admission token
	}

	if write && err == nil && s.cfg.Persist != nil {
		s.maybeCheckpoint()
	}
}

// runBatchSafe runs a batch with panic containment: a panic becomes an
// ErrBatchPanic error carrying the stack where it was raised — a module
// program's own, for a *pim.ModuleFault. Only this batch's requests fail;
// the executor, the machine, and the service survive.
func (s *Service) runBatchSafe(b *batch) (results []reply, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if mf, ok := p.(*pim.ModuleFault); ok {
				stack = mf.Stack
			}
			s.metrics.batchPanicked()
			results, err = nil, fmt.Errorf("%w: %v\n%s", ErrBatchPanic, p, stack)
		}
	}()
	if s.testHookPreBatch != nil {
		s.testHookPreBatch(b)
	}
	return s.runBatch(b)
}

// runBatch dispatches a homogeneous batch to the matching core entry point
// and splits the batch result into per-request replies (without info, which
// execute attaches afterwards).
func (s *Service) runBatch(b *batch) ([]reply, error) {
	n := len(b.reqs)
	switch b.key.kind {
	case KindLookup:
		qs := make([]geom.Point, n)
		for i, req := range b.reqs {
			qs[i] = req.pt
		}
		leaves := s.tree.LeafSearch(qs)
		out := make([]reply, n)
		for i, leaf := range leaves {
			// Copy: the leaf's bucket may be mutated by a later update
			// batch while the caller still holds the reply.
			items := s.tree.LeafItems(leaf)
			out[i].items = append([]core.Item(nil), items...)
		}
		return out, nil

	case KindKNN:
		qs := make([]geom.Point, n)
		for i, req := range b.reqs {
			qs[i] = req.pt
		}
		res := s.tree.KNN(qs, b.key.k)
		out := make([]reply, n)
		for i, cands := range res {
			out[i].cands = cands
		}
		return out, nil

	case KindRange:
		boxes := make([]geom.Box, n)
		for i, req := range b.reqs {
			boxes[i] = req.box
		}
		res := s.tree.RangeReport(boxes)
		out := make([]reply, n)
		for i, items := range res {
			out[i].items = items
		}
		return out, nil

	case KindInsert, KindIngest:
		items := make([]core.Item, n)
		for i, req := range b.reqs {
			items[i] = req.item
		}
		if b.key.unique {
			items = s.filterUnique(items)
		}
		if err := s.commit(nil, items); err != nil {
			return nil, err
		}
		if b.key.kind == KindIngest {
			// Track deadlines only after the insert committed: a refused or
			// panicked batch must not leave phantom expiry entries. A unique
			// ingest tracks a deadline only if no identical (item, deadline)
			// entry exists — a restored snapshot may already carry it;
			// within-batch duplicates collapse the same way because push is
			// incremental.
			for _, req := range b.reqs {
				if !b.key.unique || !s.expiry.tracks(req.item, req.expireAt) {
					s.expiry.push(expiryEntry{at: req.expireAt, item: req.item})
				}
			}
		}
		return make([]reply, n), nil

	case KindDelete:
		items := make([]core.Item, n)
		for i, req := range b.reqs {
			items[i] = req.item
		}
		if err := s.commit(items, nil); err != nil {
			return nil, err
		}
		return make([]reply, n), nil

	case KindJoin:
		probes := make([]core.Item, n)
		for i, req := range b.reqs {
			probes[i] = core.Item{P: req.pt}
		}
		res := s.tree.ProbeJoin(probes, math.Float64frombits(b.key.radiusBits))
		out := make([]reply, n)
		for i, items := range res {
			out[i].items = items
		}
		return out, nil

	case KindAggregate:
		boxes := make([]geom.Box, n)
		for i, req := range b.reqs {
			boxes[i] = req.box
		}
		res := s.tree.RangeAggregate(boxes)
		out := make([]reply, n)
		for i := range res {
			out[i].agg = &res[i]
		}
		return out, nil

	case KindExpire:
		// The sweep horizon is the batch's max now; each request is
		// answered with the count of popped entries at or below its own
		// now (pop order is ascending, so that is a prefix count).
		maxNow := b.reqs[0].now
		for _, req := range b.reqs[1:] {
			if req.now > maxNow {
				maxNow = req.now
			}
		}
		due := s.expiry.popDue(maxNow)
		items := make([]core.Item, len(due))
		for i, e := range due {
			items[i] = e.item
		}
		if err := s.commit(items, nil); err != nil {
			// The sweep has not happened: its entries return to the tracker.
			s.expiry.pushAll(due)
			return nil, err
		}
		out := make([]reply, n)
		for i, req := range b.reqs {
			c := 0
			for _, e := range due {
				if e.at <= req.now {
					c++
				}
			}
			out[i].expired = c
		}
		return out, nil

	case KindSnapshotCell:
		out := make([]reply, n)
		for i, req := range b.reqs {
			snap := s.cellState(req.box)
			out[i].snap = &snap
		}
		return out, nil

	case KindRestoreCell, KindMigrateCell:
		out := make([]reply, n)
		for i, req := range b.reqs {
			changed, err := s.migrateCell(req.box, *req.snap, req.ops)
			if err != nil {
				return nil, err
			}
			out[i].changed = changed
		}
		return out, nil
	}
	return nil, fmt.Errorf("serve: unknown batch kind %v", b.key.kind)
}

// commit is the one way a write reaches the tree. The delete set, then the
// insert set, is WAL-logged (each only when non-empty), and neither is
// applied until both are logged; the apply then runs in the same order the
// log replays. A refused append leaves the tree untouched, counts one
// persist failure and returns ErrPersist.
func (s *Service) commit(dels, inss []core.Item) error {
	if st := s.cfg.Persist; st != nil {
		var err error
		if len(dels) > 0 {
			_, err = st.LogBatch(persist.OpDelete, dels)
		}
		if err == nil && len(inss) > 0 {
			_, err = st.LogBatch(persist.OpInsert, inss)
		}
		if err != nil {
			s.metrics.persistFailed()
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	s.tree.BatchDelete(dels)
	s.tree.BatchInsert(inss)
	return nil
}

// filterUnique narrows a set-semantics write batch to the items that are
// genuinely new: not already stored (exact ID + coordinates match) and not
// duplicated within the batch. Only that subset is committed, so recovery
// never replays an insert that execution skipped.
func (s *Service) filterUnique(items []core.Item) []core.Item {
	present := s.tree.Contains(items)
	applied := make([]core.Item, 0, len(items))
	for i, it := range items {
		if present[i] {
			continue
		}
		dup := false
		for _, a := range applied {
			if core.ItemEq(a, it) {
				dup = true
				break
			}
		}
		if !dup {
			applied = append(applied, it)
		}
	}
	return applied
}

// cellState reads one cell's full replicated state: the canonically sorted
// live items, their attributed expiry deadlines (math.MinInt64 = no TTL
// entry), and the cell's orphaned expiry entries. Entries attribute to live
// copies in canonical order; the leftovers are orphans. Both sides are
// sorted, so one merge walk assigns deterministically.
func (s *Service) cellState(cell geom.Box) CellSnapshot {
	snap := CellSnapshot{Items: s.cellItems(cell)}
	entries := s.expiry.entriesIn(func(it core.Item) bool { return cell.ContainsHalfOpen(it.P) })
	snap.Deadlines = make([]int64, len(snap.Items))
	orphan := func(e expiryEntry) {
		snap.Orphans = append(snap.Orphans, e.item)
		snap.OrphanAts = append(snap.OrphanAts, e.at)
	}
	j := 0
	for k, it := range snap.Items {
		for ; j < len(entries) && core.ItemLess(entries[j].item, it); j++ {
			orphan(entries[j])
		}
		if j < len(entries) && core.ItemEq(entries[j].item, it) {
			snap.Deadlines[k] = entries[j].at
			j++
		} else {
			snap.Deadlines[k] = math.MinInt64
		}
	}
	for ; j < len(entries); j++ {
		orphan(entries[j])
	}
	return snap
}

// cellItems returns a fresh, canonically sorted copy of the live items the
// half-open cell box owns.
func (s *Service) cellItems(cell geom.Box) []core.Item {
	res := s.tree.RangeReport([]geom.Box{cell})[0]
	items := make([]core.Item, 0, len(res))
	for _, it := range res {
		if cell.ContainsHalfOpen(it.P) {
			items = append(items, it)
		}
	}
	core.SortItems(items)
	return items
}

// migrateCell adopts a cell region: the write ledger ops (the inserts and
// deletes that raced a migration cut, in router ack order) are replayed on
// top of the staged snapshot to reconstruct the source's post-cut state,
// and the result is exact-set into the region by restoreCell. A peer
// rebuild's restore is the no-ops case. Each replayed op mirrors the
// cluster write path's semantics on the (items, entries) state pair —
// InsertUnique, IngestUnique, ignore-absent Delete with the TTL entry left
// behind as an orphan — so the adopted region's replication checksum is
// bit-identical to the source's.
func (s *Service) migrateCell(box geom.Box, snap CellSnapshot, ops []shard.MigrateOp) (changed bool, err error) {
	type migPair struct {
		item core.Item
		at   int64
		dead bool
	}
	staged := make([]migPair, len(snap.Items))
	byID := map[int32][]int{}
	for i := range snap.Items {
		staged[i] = migPair{item: snap.Items[i], at: snap.Deadlines[i]}
		byID[snap.Items[i].ID] = append(byID[snap.Items[i].ID], i)
	}
	findLive := func(it core.Item) int {
		for _, i := range byID[it.ID] {
			if !staged[i].dead && core.ItemEq(staged[i].item, it) {
				return i
			}
		}
		return -1
	}
	addStaged := func(it core.Item, at int64) {
		byID[it.ID] = append(byID[it.ID], len(staged))
		staged = append(staged, migPair{item: it, at: at})
	}
	orphans := append([]core.Item(nil), snap.Orphans...)
	orphanAts := append([]int64(nil), snap.OrphanAts...)
	hasOrphan := func(it core.Item, at int64) bool {
		for i := range orphans {
			if orphanAts[i] == at && core.ItemEq(orphans[i], it) {
				return true
			}
		}
		return false
	}

	for _, op := range ops {
		if !box.ContainsHalfOpen(op.Item.P) {
			continue // ledger op outside the moving region: not ours
		}
		idx := findLive(op.Item)
		switch {
		case op.Delete:
			if idx < 0 {
				continue // ignore-absent delete
			}
			// The live item goes; a tracked TTL entry stays behind as an
			// orphan, exactly as a plain delete leaves the expiry heap.
			if staged[idx].at != math.MinInt64 {
				orphans = append(orphans, staged[idx].item)
				orphanAts = append(orphanAts, staged[idx].at)
			}
			staged[idx].dead = true
		case op.ExpireAt == math.MinInt64:
			// InsertUnique: no-op when the identical item is already live.
			if idx < 0 {
				addStaged(op.Item, math.MinInt64)
			}
		default:
			// IngestUnique: the insert is skipped when the item is live; the
			// deadline entry is created only when no identical (item,
			// deadline) entry exists — tracked on the live item or orphaned.
			if idx < 0 {
				if hasOrphan(op.Item, op.ExpireAt) {
					addStaged(op.Item, math.MinInt64)
				} else {
					addStaged(op.Item, op.ExpireAt)
				}
				continue
			}
			if staged[idx].at == op.ExpireAt || hasOrphan(op.Item, op.ExpireAt) {
				continue
			}
			orphans = append(orphans, op.Item)
			orphanAts = append(orphanAts, op.ExpireAt)
		}
	}

	adopted := CellSnapshot{Orphans: orphans, OrphanAts: orphanAts}
	for i := range staged {
		if !staged[i].dead {
			adopted.Items = append(adopted.Items, staged[i].item)
			adopted.Deadlines = append(adopted.Deadlines, staged[i].at)
		}
	}
	return s.restoreCell(box, adopted)
}

// restoreCell exact-sets one cell to snap: the tree multiset diff goes
// through commit as one delete set and one insert set, and the cell's
// expiry entries are rebuilt from the snapshot. It reports whether anything
// differed. A crash between the two WAL appends recovers with the deletes
// applied and the inserts not; for a peer-rebuild restore that is safe
// because it only runs on a fenced (not in-sync) replica whose
// authoritative copy lives on its peers — the next rebuild pass on boot
// re-pulls the cell.
func (s *Service) restoreCell(box geom.Box, snap CellSnapshot) (changed bool, err error) {
	cur := s.cellItems(box)

	// Canonicalize the desired state, keeping deadlines attached through
	// the sort (ties order by deadline so the result is a pure function of
	// the snapshot multiset).
	desired := make([]expiryEntry, len(snap.Items))
	for i := range snap.Items {
		desired[i] = expiryEntry{at: snap.Deadlines[i], item: snap.Items[i]}
	}
	sortEntries(desired)
	want := make([]core.Item, len(desired))
	for i := range desired {
		want[i] = desired[i].item
	}

	// Tree multiset diff (both sides sorted): what to delete, what to
	// insert. Matching copies stay untouched, so a convergence re-pull of
	// an already-synced cell does zero machine work and zero WAL traffic.
	var dels, inss []core.Item
	ci, di := 0, 0
	for ci < len(cur) && di < len(want) {
		switch {
		case core.ItemEq(cur[ci], want[di]):
			ci++
			di++
		case core.ItemLess(cur[ci], want[di]):
			dels = append(dels, cur[ci])
			ci++
		default:
			inss = append(inss, want[di])
			di++
		}
	}
	dels = append(dels, cur[ci:]...)
	inss = append(inss, want[di:]...)

	// Desired expiry entries: tracked live items plus the snapshot's
	// orphans, in canonical (item, deadline) order.
	var wantEntries []expiryEntry
	for _, e := range desired {
		if e.at != math.MinInt64 {
			wantEntries = append(wantEntries, e)
		}
	}
	for i := range snap.Orphans {
		wantEntries = append(wantEntries, expiryEntry{at: snap.OrphanAts[i], item: snap.Orphans[i]})
	}
	sortEntries(wantEntries)
	curEntries := s.expiry.entriesIn(func(it core.Item) bool { return box.ContainsHalfOpen(it.P) })
	entriesEqual := len(curEntries) == len(wantEntries)
	for i := 0; entriesEqual && i < len(curEntries); i++ {
		entriesEqual = curEntries[i].at == wantEntries[i].at && core.ItemEq(curEntries[i].item, wantEntries[i].item)
	}

	if len(dels) == 0 && len(inss) == 0 && entriesEqual {
		return false, nil
	}
	if err := s.commit(dels, inss); err != nil {
		return false, err
	}
	if !entriesEqual {
		s.expiry.dropUnless(func(it core.Item) bool { return !box.ContainsHalfOpen(it.P) })
		s.expiry.pushAll(wantEntries)
	}
	return true, nil
}
