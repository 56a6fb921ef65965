package pkdtree

import (
	"sync/atomic"

	"pimkd/internal/kd"
)

// BatchInsert inserts a batch of items using the scapegoat-style partial
// reconstruction scheme: every item is routed root-to-leaf with exact
// subtree counters updated along the way, and the highest node whose
// α-balance (or leaf capacity) is violated afterwards is rebuilt from its
// gathered points. Per Lemma 2.2 the amortized work per element is
// O(log²n / α).
func (t *Tree) BatchInsert(items []Item) {
	if len(items) == 0 {
		return
	}
	if t.root == nil {
		own := make([]Item, len(items))
		copy(own, items)
		t.root = t.build(own)
		return
	}
	for _, it := range items {
		nd := t.root
		nd.box = nd.box.Expand(it.P)
		for !nd.leaf() {
			atomic.AddInt64(&t.Meter.NodeVisits, 1)
			nd.size++
			nd = nd.child(it.P)
			nd.box = nd.box.Expand(it.P)
		}
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		nd.size++
		nd.pts = append(nd.pts, it)
	}
	t.root = t.rebuildViolations(t.root)
}

// BatchDelete removes the given items (matched by coordinates + ID). Items
// not present are ignored. Counters are updated exactly and imbalanced
// subtrees rebuilt, mirroring BatchInsert.
func (t *Tree) BatchDelete(items []Item) {
	if len(items) == 0 || t.root == nil {
		return
	}
	for _, it := range items {
		t.deleteOne(it)
	}
	if t.root != nil && t.root.size == 0 {
		t.root = nil
		return
	}
	if t.root != nil {
		t.root = t.rebuildViolations(t.root)
	}
}

// deleteOne removes one item; it returns true if the item was found. The
// metered pass routes to the leaf and scans it once; subtree sizes along
// the path are decremented, by a second unmetered routing pass, only when
// the item exists.
func (t *Tree) deleteOne(it Item) bool {
	leaf := t.root
	for !leaf.leaf() {
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		leaf = leaf.child(it.P)
	}
	atomic.AddInt64(&t.Meter.NodeVisits, 1)
	atomic.AddInt64(&t.Meter.PointOps, int64(len(leaf.pts)))
	found := -1
	for i, p := range leaf.pts {
		if p.ID == it.ID && p.P.Equal(it.P) {
			found = i
			break
		}
	}
	if found < 0 {
		return false
	}
	for nd := t.root; nd != leaf; nd = nd.child(it.P) {
		nd.size--
	}
	leaf.size--
	last := len(leaf.pts) - 1
	leaf.pts[found] = leaf.pts[last]
	leaf.pts = leaf.pts[:last]
	return true
}

// rebuildViolations walks down from nd and rebuilds the highest violating
// subtrees (α-imbalance, leaf overflow, or an emptied child). It returns the
// possibly replaced node.
func (t *Tree) rebuildViolations(nd *node) *node {
	if nd == nil {
		return nil
	}
	if nd.size == 0 {
		return nil
	}
	if nd.leaf() {
		if len(nd.pts) > t.cfg.LeafSize && !kd.Indivisible(nd.pts) {
			return t.rebuildSubtree(nd)
		}
		return nd
	}
	ls, rs := subSize(nd.left), subSize(nd.right)
	if ls == 0 || rs == 0 || (violated(ls, rs, t.cfg.Alpha) && !t.forcedImbalance(nd)) {
		// Forced imbalance (no cut of the multiset can satisfy α) is
		// exempt: rebuilding cannot improve it and would churn every batch.
		return t.rebuildSubtree(nd)
	}
	nd.left = t.rebuildViolations(nd.left)
	nd.right = t.rebuildViolations(nd.right)
	nd.box = unionBox(nd.left.box, nd.right.box)
	return nd
}

func subSize(nd *node) int {
	if nd == nil {
		return 0
	}
	return nd.size
}

// rebuildSubtree gathers a subtree's points and reconstructs it.
func (t *Tree) rebuildSubtree(nd *node) *node {
	items := collect(nd, make([]Item, 0, nd.size))
	atomic.AddInt64(&t.Meter.Rebuilds, 1)
	atomic.AddInt64(&t.Meter.RebuiltPoints, int64(len(items)))
	return t.build(items)
}
