package core

import (
	"sort"

	"pimkd/internal/geom"
	"pimkd/internal/mathx"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// BatchInsert inserts a batch of items using the paper's two-stage scheme
// (§4.2). Stage 1 runs the LeafSearch helper with probabilistic counter
// increments at every group boundary on each path. Stage 2 commits the
// points into their leaves, partially reconstructs the highest subtrees
// whose approximate counters reveal an α-balance violation, splits
// overflowing leaves, and promotes nodes whose counters crossed a group
// threshold.
func (t *Tree) BatchInsert(items []Item) {
	if len(items) == 0 {
		return
	}
	if t.root == Nil {
		t.Build(items)
		return
	}
	qs := make([]geom.Point, len(items))
	for i, it := range items {
		qs[i] = it.P
	}
	// Stage 1: LeafSearch helper with counter increments.
	leaves, fired := t.leafSearchBatch(qs, +1)
	t.size += len(items)

	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/insert:commit")
		// Commit every point into its leaf. The batch is grouped by leaf
		// (GroupBy preserves batch order within a group, matching the old
		// per-item append loop) so distinct leaves commit in parallel; the
		// metering, space charges, and ancestor shadow counters then run in
		// one sequential pass in ascending leaf order, keeping pim.Stats
		// and fault-injection attempt sequences deterministic.
		groups := parallel.GroupBy(len(leaves), func(i int) int { return int(leaves[i]) })
		parallel.ForChunked(len(groups), func(lo, hi int) {
			for _, g := range groups[lo:hi] {
				nd := t.nd(NodeID(g.Key))
				for _, i := range g.Idxs {
					nd.pts = append(nd.pts, items[i])
				}
			}
		})
		overflow := map[NodeID]bool{}
		for _, g := range groups {
			leafID := NodeID(g.Key)
			nd := t.nd(leafID)
			added := int64(len(g.Idxs))
			t.chargePointSpace(added)
			r.Transfer(int(nd.module), added*pointWords(t.cfg.Dim))
			r.ModuleWork(int(nd.module), added)
			// Shadow exact sizes (ground truth, unmetered).
			for id := leafID; id != Nil; id = t.nd(id).parent {
				t.nd(id).exact += int32(added)
			}
			// Overflow is a monotone condition under appends (len only
			// grows; an indivisible leaf only becomes divisible), so the
			// final-state check equals the old per-append check.
			if len(nd.pts) > t.cfg.LeafSize && !t.indivisibleLeaf(leafID) {
				overflow[leafID] = true
			}
		}
		r.CPUSpan(int64(mathx.CeilLog2(len(items)+1) + mathx.CeilLog2(t.size+1)))
		t.finishUpdate(fired, overflow, len(items), r)
	})
	t.flushFree()
}

// BatchDelete removes a batch of items (matched by coordinates and ID;
// absent items are ignored), mirroring BatchInsert: the LeafSearch helper
// decrements counters along each path, then points are removed, emptied or
// imbalanced subtrees partially reconstructed, and nodes demoted across
// groups as their counters shrink.
func (t *Tree) BatchDelete(items []Item) {
	if len(items) == 0 || t.root == Nil {
		return
	}
	qs := make([]geom.Point, len(items))
	for i, it := range items {
		qs[i] = it.P
	}
	leaves, fired := t.leafSearchBatch(qs, -1)

	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/delete:commit")
		// Group the batch by target leaf and run the find-and-remove scans
		// in parallel across leaves. Each group's scans execute in batch
		// order (GroupBy guarantees ascending indices), so the per-item scan
		// length — which the paper meters as module work — depends only on
		// that leaf's earlier deletions, exactly as in the sequential loop.
		// Metering and tree-global bookkeeping then run sequentially in
		// ascending leaf order.
		groups := parallel.GroupBy(len(leaves), func(i int) int { return int(leaves[i]) })
		workSums := make([]int64, len(groups))
		removedCounts := make([]int64, len(groups))
		parallel.ForChunked(len(groups), func(glo, ghi int) {
			for gi := glo; gi < ghi; gi++ {
				g := groups[gi]
				nd := t.nd(NodeID(g.Key))
				var work, removed int64
				for _, i := range g.Idxs {
					found := -1
					for j, p := range nd.pts {
						if p.ID == items[i].ID && p.P.Equal(items[i].P) {
							found = j
							break
						}
					}
					work += int64(len(nd.pts))
					if found < 0 {
						continue
					}
					nd.pts[found] = nd.pts[len(nd.pts)-1]
					nd.pts = nd.pts[:len(nd.pts)-1]
					removed++
				}
				workSums[gi] = work
				removedCounts[gi] = removed
			}
		})
		emptied := map[NodeID]bool{}
		for gi, g := range groups {
			leafID := NodeID(g.Key)
			nd := t.nd(leafID)
			r.ModuleWork(int(nd.module), workSums[gi])
			r.Transfer(int(nd.module), int64(len(g.Idxs))*queryWords(t.cfg.Dim))
			removed := removedCounts[gi]
			if removed == 0 {
				continue
			}
			t.unchargePointSpace(removed)
			t.size -= int(removed)
			for id := leafID; id != Nil; id = t.nd(id).parent {
				t.nd(id).exact -= int32(removed)
			}
			if len(nd.pts) == 0 {
				emptied[leafID] = true
			}
		}
		if t.nd(t.root).exact == 0 {
			t.dismantle(t.root)
			t.root = Nil
			t.size = 0
			return
		}
		// An emptied leaf is repaired by rebuilding its parent (or, for a
		// root leaf, nothing — handled above when the tree empties).
		toFix := map[NodeID]bool{}
		for leafID := range emptied {
			if p := t.nd(leafID).parent; p != Nil {
				toFix[p] = true
			}
		}
		r.CPUSpan(int64(mathx.CeilLog2(len(items)+1) + mathx.CeilLog2(t.size+1)))
		t.finishUpdate(fired, toFix, len(items), r)
	})
	t.flushFree()
}

// finishUpdate is the shared stage 2: find the highest α-violations
// revealed by the fired counters, rebuild those subtrees (which also fixes
// any flagged leaves inside them), rebuild the remaining flagged leaves,
// and regroup fired nodes whose counters crossed a group threshold.
func (t *Tree) finishUpdate(fired []NodeID, flagged map[NodeID]bool, batchS int, r *pim.Round) {
	// Candidate violations: every fired node and its parent (the parent's
	// balance depends on the fired child's counter).
	cand := map[NodeID]bool{}
	for _, f := range fired {
		nd := t.nd(f)
		if nd.dead {
			continue
		}
		if t.balanceViolated(f) {
			cand[f] = true
		}
		if p := nd.parent; p != Nil && t.balanceViolated(p) {
			cand[p] = true
		}
	}
	maximal := t.maximalSet(cand)
	for _, v := range maximal {
		if !t.nd(v).dead {
			t.rebuildSubtree(v, r, batchS)
		}
	}
	// Flagged leaves/parents outside any rebuilt subtree.
	flaggedIDs := make([]NodeID, 0, len(flagged))
	for id := range flagged {
		flaggedIDs = append(flaggedIDs, id)
	}
	sort.Slice(flaggedIDs, func(i, j int) bool { return flaggedIDs[i] < flaggedIDs[j] })
	for _, id := range flaggedIDs {
		if !t.nd(id).dead {
			t.rebuildSubtree(id, r, batchS)
		}
	}
	// Promotions/demotions for surviving fired nodes.
	for _, f := range fired {
		if !t.nd(f).dead {
			t.regroup(f, r, batchS)
		}
	}
}

// balanceViolated checks the α-balance of an internal node using the
// approximate child counters (the only counters the PIM design maintains).
// Imbalance forced by an indivisible duplicate bucket (a leaf of identical
// points, which no split can divide) is exempt — rebuilding cannot improve
// it and would otherwise churn on every batch.
func (t *Tree) balanceViolated(id NodeID) bool {
	nd := t.nd(id)
	if nd.leaf {
		return false
	}
	l := t.nd(nd.left).count.Value()
	rv := t.nd(nd.right).count.Value()
	big, small := l, rv
	bigID := nd.left
	if rv > l {
		big, small = rv, l
		bigID = nd.right
	}
	if big <= (1+t.cfg.Alpha)*small+1 {
		return false
	}
	if nd.stuck {
		return false
	}
	return !t.indivisibleLeaf(bigID)
}

// indivisibleLeaf reports whether id is a leaf whose points are all
// identical.
func (t *Tree) indivisibleLeaf(id NodeID) bool {
	nd := t.nd(id)
	if !nd.leaf || len(nd.pts) == 0 {
		return false
	}
	for _, it := range nd.pts[1:] {
		if !it.P.Equal(nd.pts[0].P) {
			return false
		}
	}
	return true
}

// maximalSet drops every candidate that has a strict ancestor in the set,
// returning the survivors sorted.
func (t *Tree) maximalSet(cand map[NodeID]bool) []NodeID {
	var out []NodeID
	for id := range cand {
		covered := false
		for a := t.nd(id).parent; a != Nil; a = t.nd(a).parent {
			if cand[a] {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rebuildSubtree gathers the points under v, reconstructs the subtree, and
// splices the replacement in, refreshing groups and caching. Gathering and
// scatter costs are metered to the modules actually holding the leaves; the
// build work runs on one module for small subtrees and is spread evenly
// for large ones (the distributed construction of Algorithm 2).
func (t *Tree) rebuildSubtree(v NodeID, r *pim.Round, batchS int) {
	vn := t.nd(v)
	parent := vn.parent
	cell := vn.box.Clone()
	wasLeft := parent != Nil && t.nd(parent).left == v
	oldGroup := vn.group

	if vn.exact == 0 {
		// An entirely empty subtree cannot be rebuilt in place; absorb it
		// by rebuilding its parent (an empty root is handled by callers).
		if parent == Nil {
			t.dismantle(v)
			t.root = Nil
			t.size = 0
			return
		}
		t.rebuildSubtree(parent, r, batchS)
		return
	}

	items := make([]Item, 0, vn.exact)
	items = t.gatherItems(v, items, r)
	t.OpStats.Rebuilds++
	t.OpStats.RebuiltPoints += int64(len(items))
	t.dismantle(v)

	var ops int64
	b := buildExactB(items, t.cfg.LeafSize, &ops)
	p := t.mach.P()
	if len(items) <= mathx.MaxInt(1024, 4*p*t.cfg.LeafSize) {
		// Small rebuild: run on a single (hash-chosen) module.
		mod := t.mach.Hash(t.salt ^ uint64(t.epoch)*0x9e3779b97f4a7c15)
		r.ModuleWork(mod, ops)
	} else {
		// Large rebuild: distributed construction — the CPU routes points
		// through a sketch and the modules build shares in parallel.
		r.CPUWork(int64(len(items) * (mathx.CeilLog2(p) + 1)))
		r.ChargeAll(0, ops/int64(p)+1)
	}
	id := t.graft(b, parent, cell)
	if parent == Nil {
		t.root = id
	} else if wasLeft {
		t.nd(parent).left = id
	} else {
		t.nd(parent).right = id
	}
	t.decorate(id, r, batchS)
	// A reconstruction that still violates α at its root means the point
	// multiset admits no balanced cut: remember that so the node is not
	// rebuilt again every batch.
	if nd := t.nd(id); !nd.leaf {
		ls := float64(t.nd(nd.left).exact)
		rs := float64(t.nd(nd.right).exact)
		big, small := ls, rs
		if rs > ls {
			big, small = rs, ls
		}
		if big > (1+t.cfg.Alpha)*small+1 {
			nd.stuck = true
		}
	}
	if parent != Nil && oldGroup == t.nd(parent).group && t.nd(id).group != t.nd(parent).group {
		// The replaced subtree's top belonged to the parent's component but
		// its replacement does not (so decorate did not refresh that
		// component): refresh it so its dual-way copy sets drop the
		// dismantled members' modules.
		pr := t.nd(parent).compRoot
		if pr == Nil {
			pr = parent
		}
		if !t.nd(pr).dead {
			t.nd(pr).needsRefresh = true
			t.refreshFrom(pr, r, batchS)
		}
	}
}

// gatherItems collects the points stored under v, metering the transfer of
// each leaf bucket off its module.
func (t *Tree) gatherItems(v NodeID, out []Item, r *pim.Round) []Item {
	nd := t.nd(v)
	if nd.leaf {
		if r != nil {
			r.Transfer(int(nd.module), int64(len(nd.pts))*pointWords(t.cfg.Dim))
		}
		return append(out, nd.pts...)
	}
	out = t.gatherItems(nd.left, out, r)
	return t.gatherItems(nd.right, out, r)
}

// regroup moves node v to the group its counter now indicates, preserving
// group monotonicity down the tree, and refreshes the caching of every
// affected component (the node's old component, the component it joins, and
// the new component roots it leaves behind).
func (t *Tree) regroup(v NodeID, r *pim.Round, batchS int) {
	nd := t.nd(v)
	ng := t.groupOf(nd.count.Value())
	if p := nd.parent; p != Nil && ng < t.nd(p).group {
		// Promotion past the parent's group would break monotonicity; the
		// parent must promote first (its counter will catch up).
		ng = t.nd(p).group
	}
	if ng == nd.group {
		return
	}
	oldRoot := nd.compRoot
	if oldRoot == Nil {
		oldRoot = v
	}
	t.setGroup(v, ng)
	// The refresh must start at the shallowest affected component root:
	// the old component's root, or — when v merges into the parent's
	// component — that component's root.
	top := oldRoot
	if p := t.nd(v).parent; p != Nil && t.nd(p).group == ng {
		pr := t.nd(p).compRoot
		if pr == Nil {
			pr = p
		}
		if t.depth(pr) < t.depth(top) {
			top = pr
		}
	}
	if t.nd(top).dead {
		return
	}
	t.nd(top).needsRefresh = true
	t.refreshFrom(top, r, batchS)
}

// setGroup applies a group change to v, cascading demotions to children
// that would otherwise sit above v's new group, and flagging the component
// roots created beneath v for refresh.
func (t *Tree) setGroup(v NodeID, ng int16) {
	nd := t.nd(v)
	old := nd.group
	if ng == old {
		return
	}
	nd.group = ng
	nd.needsRefresh = true
	if nd.leaf {
		return
	}
	for _, c := range []NodeID{nd.left, nd.right} {
		cn := t.nd(c)
		switch {
		case cn.group < ng:
			// Demotion cascade: children may never be in a shallower group
			// than their parent.
			t.setGroup(c, ng)
		case cn.group == old && ng < old:
			// Promotion: children left behind in the old group become new
			// component roots.
			cn.needsRefresh = true
		}
	}
}

// depth returns the number of ancestors of id (root has depth 0).
func (t *Tree) depth(id NodeID) int {
	d := 0
	for a := t.nd(id).parent; a != Nil; a = t.nd(a).parent {
		d++
	}
	return d
}
