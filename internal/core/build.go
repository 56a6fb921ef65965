package core

import (
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
)

// bnode is a lightweight build-time tree node. Module programs build
// bnode trees privately (safe to run concurrently) and the CPU phase grafts
// them into the shared arena afterwards.
type bnode struct {
	axis  int32
	split float64
	l, r  *bnode
	pts   []Item
	size  int
	// maxPri/maxPriID track the maximum (Priority, ID) pair in the subtree
	// for the priority-search augmentation.
	maxPri   float64
	maxPriID int32
}

// buildExactB deterministically builds an α-respecting kd-tree over items
// with kd.Build's object-median splits. It guarantees progress on any
// input (identical points collapse into one oversized leaf). ops
// accumulates point-granularity work, one per item per node (atomically —
// large subtrees recurse in parallel). Ownership of items passes to the
// tree.
func buildExactB(items []Item, leafSize int, ops *int64) *bnode {
	return kd.Build(items, leafSize, func(items []Item) *bnode {
		atomic.AddInt64(ops, int64(len(items)))
		return leafB(items)
	}, func(axis int, split float64, l, r *bnode, n int) *bnode {
		atomic.AddInt64(ops, int64(n))
		return joinB(int32(axis), split, l, r)
	})
}

func leafB(items []Item) *bnode {
	b := &bnode{pts: ownItems(items), size: len(items)}
	b.maxPri, b.maxPriID = items[0].Priority, items[0].ID
	for _, it := range items[1:] {
		if kd.PriLess(b.maxPri, b.maxPriID, it.Priority, it.ID) {
			b.maxPri, b.maxPriID = it.Priority, it.ID
		}
	}
	return b
}

// joinB makes the split node over l and r.
func joinB(axis int32, split float64, l, r *bnode) *bnode {
	b := &bnode{axis: axis, split: split, l: l, r: r, size: l.size + r.size}
	b.maxPri, b.maxPriID = l.maxPri, l.maxPriID
	if kd.PriLess(b.maxPri, b.maxPriID, r.maxPri, r.maxPriID) {
		b.maxPri, b.maxPriID = r.maxPri, r.maxPriID
	}
	return b
}

// ownItems copies a partition sub-slice into owned storage so that later
// appends to one leaf's bucket can never scribble over a sibling's points.
func ownItems(items []Item) []Item {
	out := make([]Item, len(items))
	copy(out, items)
	return out
}

// graft converts a bnode tree into arena nodes under the given parent,
// setting exact shadow sizes and exact counter values. Arena nodes carry
// *cell* boxes (the region delimited by ancestor splits, cut down to the
// given cell) rather than tight bounding boxes: cells are invariant under
// later insertions, so dynamic updates never need to propagate box changes
// to replicas — which is what keeps the paper's update communication bound.
// The root's cell is copied from cell, and every child's is its parent's
// cut at the parent's split, written straight into the box slab. Groups,
// masters, and caching are assigned afterwards by decorate.
func (t *Tree) graft(b *bnode, parent NodeID, cell geom.Box) NodeID {
	if b == nil {
		return Nil
	}
	id := t.alloc()
	box := t.box(id)
	copy(box.Lo, cell.Lo)
	copy(box.Hi, cell.Hi)
	t.graftAt(id, b, parent)
	return id
}

// graftAt fills the allocated slot id, whose cell is already in the slab,
// from b, and grafts b's children below it. Slots are allocated in
// preorder.
func (t *Tree) graftAt(id NodeID, b *bnode, parent NodeID) {
	nd := t.nd(id)
	nd.parent = parent
	nd.axis = b.axis
	nd.split = b.split
	nd.exact = int32(b.size)
	nd.count.Set(float64(b.size))
	nd.maxPri, nd.maxPriID = b.maxPri, b.maxPriID
	if b.pts != nil {
		nd.leaf = true
		nd.pts = b.pts
		t.chargePointSpace(int64(len(b.pts)))
		return
	}
	l := t.alloc()
	copy(t.boxRow(l), t.boxRow(id))
	t.box(l).Hi[b.axis] = b.split
	t.graftAt(l, b.l, id)
	r := t.alloc()
	copy(t.boxRow(r), t.boxRow(id))
	t.box(r).Lo[b.axis] = b.split
	t.graftAt(r, b.r, id)
	nd = t.nd(id) // re-fetch: grafting children may grow the arena
	nd.left, nd.right = l, r
}
