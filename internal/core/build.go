package core

import (
	"sync"
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/parallel"
)

// buildParGrain is the subtree size below which buildExactB recurses
// sequentially instead of forking the two children. Forking above this
// size gives the binary-forking-model span; results are identical either
// way because the recursion's outputs (partition layout, split choices,
// ops total) do not depend on evaluation order.
const buildParGrain = 4096

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
// using object-median splits on the widest non-degenerate axis. It
// guarantees progress on any input (identical points collapse into one
// oversized leaf). ops accumulates point-granularity work (atomically —
// large subtrees recurse in parallel). Ownership of items passes to the
// tree.
func buildExactB(items []Item, leafSize int, ops *int64) *bnode {
	if len(items) == 0 {
		return nil
	}
	return buildExact(items, make([]float64, len(items)), scratchBox(len(items[0].P)), leafSize, ops)
}

// scratchBox returns a fresh dim-dimensional box backed by one allocation.
func scratchBox(dim int) geom.Box {
	buf := make([]float64, 2*dim)
	return geom.Box{Lo: buf[:dim:dim], Hi: buf[dim:]}
}

// buildExact is buildExactB's recursion. coords is exactSplit's scratch,
// one slot per item: each half of a split recurses on its own half of it,
// so the parallel fork shares no scratch. box is the scratch for a node's
// tight bounding box, which only chooses its split: the recursion reuses
// it, and a parallel fork hands its right half a fresh one.
func buildExact(items []Item, coords []float64, box geom.Box, leafSize int, ops *int64) *bnode {
	n := len(items)
	if n == 0 {
		return nil
	}
	atomic.AddInt64(ops, int64(n))
	if n <= leafSize {
		return leafB(items)
	}
	itemsBox(items, box)
	axis, split, ok := exactSplit(items, box, coords)
	if !ok {
		return leafB(items)
	}
	i, j := 0, n-1
	for i <= j {
		if items[i].P[axis] < split {
			i++
		} else {
			items[i], items[j] = items[j], items[i]
			j--
		}
	}
	var l, r *bnode
	if n >= buildParGrain {
		parallel.Do(
			func() { l = buildExact(items[:i], coords[:i], box, leafSize, ops) },
			func() { r = buildExact(items[i:], coords[i:], scratchBox(len(box.Lo)), leafSize, ops) },
		)
	} else {
		l = buildExact(items[:i], coords[:i], box, leafSize, ops)
		r = buildExact(items[i:], coords[i:], box, leafSize, ops)
	}
	b := &bnode{
		axis:  int32(axis),
		split: split,
		l:     l,
		r:     r,
		size:  n,
	}
	b.maxPri, b.maxPriID = l.maxPri, l.maxPriID
	if priLess(b.maxPri, b.maxPriID, r.maxPri, r.maxPriID) {
		b.maxPri, b.maxPriID = r.maxPri, r.maxPriID
	}
	return b
}

func leafB(items []Item) *bnode {
	b := &bnode{pts: ownItems(items), size: len(items)}
	b.maxPri, b.maxPriID = items[0].Priority, items[0].ID
	for _, it := range items[1:] {
		if priLess(b.maxPri, b.maxPriID, it.Priority, it.ID) {
			b.maxPri, b.maxPriID = it.Priority, it.ID
		}
	}
	return b
}

// priLess orders (priority, id) pairs lexicographically — the tie-break
// order used by density peak clustering.
func priLess(p1 float64, id1 int32, p2 float64, id2 int32) bool {
	if p1 != p2 {
		return p1 < p2
	}
	return id1 < id2
}

// ownItems copies a partition sub-slice into owned storage so that later
// appends to one leaf's bucket can never scribble over a sibling's points.
func ownItems(items []Item) []Item {
	out := make([]Item, len(items))
	copy(out, items)
	return out
}

// itemsBox writes the tight bounding box of items into box. Above the fork
// threshold the chunk boxes merge under a mutex in arbitrary order, which
// is safe for determinism: float64 min/max is exact and commutative, so
// the merged box is bit-identical to the sequential scan's.
func itemsBox(items []Item, box geom.Box) {
	if len(items) < buildParGrain {
		itemsBoxSeq(items, box)
		return
	}
	var mu sync.Mutex
	first := true
	parallel.ForChunked(len(items), func(lo, hi int) {
		b := scratchBox(len(box.Lo))
		itemsBoxSeq(items[lo:hi], b)
		mu.Lock()
		defer mu.Unlock()
		if first {
			copy(box.Lo, b.Lo)
			copy(box.Hi, b.Hi)
			first = false
			return
		}
		for d := range box.Lo {
			if b.Lo[d] < box.Lo[d] {
				box.Lo[d] = b.Lo[d]
			}
			if b.Hi[d] > box.Hi[d] {
				box.Hi[d] = b.Hi[d]
			}
		}
	})
}

func itemsBoxSeq(items []Item, box geom.Box) {
	copy(box.Lo, items[0].P)
	copy(box.Hi, items[0].P)
	lo, hi := box.Lo, box.Hi
	for _, it := range items[1:] {
		for d := range it.P {
			if it.P[d] < lo[d] {
				lo[d] = it.P[d]
			}
			if it.P[d] > hi[d] {
				hi[d] = it.P[d]
			}
		}
	}
}

// exactSplit finds the object-median split value, guaranteeing both sides
// of a (v < split) partition are non-empty. Axes are tried widest-first,
// equal widths in axis order; when duplicate coordinates make one axis's
// median split lopsided, the axis with the most even partition wins. ok is
// false when all points are identical. coords is scratch of at least
// len(items) slots.
func exactSplit(items []Item, box geom.Box, coords []float64) (axis int, split float64, ok bool) {
	type axisWidth struct {
		axis  int
		width float64
	}
	// An insertion sort into a fixed array orders the axes without
	// allocating for up to 16 dimensions.
	var buf [16]axisWidth
	dims := buf[:0]
	if len(box.Lo) > len(buf) {
		dims = make([]axisWidth, 0, len(box.Lo))
	}
	for d := range box.Lo {
		dims = append(dims, axisWidth{d, box.Hi[d] - box.Lo[d]})
		for j := len(dims) - 1; j > 0 && dims[j].width > dims[j-1].width; j-- {
			dims[j], dims[j-1] = dims[j-1], dims[j]
		}
	}
	n := len(items)
	coords = coords[:n]
	bestSkew := n + 1
	for _, aw := range dims {
		if aw.width <= 0 {
			break
		}
		a := aw.axis
		for i, it := range items {
			coords[i] = it.P[a]
		}
		v := quickMedian(coords)
		// Two candidate cuts bracket the ideal n/2: the median value and
		// the next distinct value above it. With duplicates, the balanced
		// cut can be either (any value between two consecutive distinct
		// coordinates induces the same partition).
		next := box.Hi[a] + 1
		hasNext := false
		for _, c := range coords {
			if c > v && c < next {
				next, hasNext = c, true
			}
		}
		cands := [2]float64{v, next}
		nc := 1
		if hasNext {
			nc = 2
		}
		for _, cand := range cands[:nc] {
			left := 0
			for _, c := range coords {
				if c < cand {
					left++
				}
			}
			if left < 1 || left > n-1 {
				continue
			}
			skew := left - n/2
			if skew < 0 {
				skew = -skew
			}
			if skew < bestSkew {
				bestSkew, axis, split, ok = skew, a, cand, true
			}
		}
		if ok && bestSkew <= n/16 {
			break
		}
	}
	return axis, split, ok
}

// quickMedian returns the element of rank len/2 using in-place quickselect
// (deterministic median-of-three pivoting). It permutes coords.
func quickMedian(coords []float64) float64 {
	k := len(coords) / 2
	lo, hi := 0, len(coords)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if coords[mid] < coords[lo] {
			coords[mid], coords[lo] = coords[lo], coords[mid]
		}
		if coords[hi] < coords[lo] {
			coords[hi], coords[lo] = coords[lo], coords[hi]
		}
		if coords[hi] < coords[mid] {
			coords[hi], coords[mid] = coords[mid], coords[hi]
		}
		pivot := coords[mid]
		i, j := lo, hi
		for i <= j {
			for coords[i] < pivot {
				i++
			}
			for coords[j] > pivot {
				j--
			}
			if i <= j {
				coords[i], coords[j] = coords[j], coords[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return coords[k]
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
