package core

import (
	"math"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
)

// Dependent is the result of one nearest-higher-priority query: the ID of
// the closest stored item whose (Priority, ID) pair exceeds the query's,
// and the distance to it. ID is -1 when no higher-priority item exists
// (the query point is a global peak).
type Dependent struct {
	ID   int32
	Dist float64
}

// DependentPoints answers a batch of nearest-higher-priority queries — the
// dependent-point step of density peak clustering (§6.1). For each query
// (point, priority, id) it returns the nearest stored item strictly greater
// in (Priority, ID) order. The traversal is a 1NN priority search that only
// descends subtrees whose maximum (Priority, ID) augmentation exceeds the
// query's, with the usual cell-distance pruning; like kNN it backtracks
// from the query's own leaf, since the nearest higher-priority point tends
// to be nearby.
func (t *Tree) DependentPoints(qs []Item) []Dependent {
	res := make([]Dependent, len(qs))
	pts := make([]geom.Point, len(qs))
	for i := range qs {
		res[i] = Dependent{ID: -1, Dist: math.Inf(1)}
		pts[i] = qs[i].P
	}
	leaves := t.LeafSearch(pts)
	t.walk("core/priority:dependent", len(qs), leaves, func(i int, w walker) {
		// best.Dist holds the squared distance until the walk ends.
		q, best := &qs[i], &res[i]
		w.higher(leaves[i], q, best)
		w.backtrack(leaves[i], func(sib NodeID) { w.higherIn(sib, q, best) })
		best.Dist = math.Sqrt(best.Dist)
		if best.ID < 0 {
			w.done(0)
		} else {
			w.done(1)
		}
	})
	return res
}

// higher scans leaf id for items above q, or touches internal node id and
// explores its children, nearer child first.
func (w *walker) higher(id NodeID, q *Item, best *Dependent) {
	nd := w.t.nd(id)
	if nd.leaf {
		for _, it := range w.scan(id) {
			if !kd.PriLess(q.Priority, q.ID, it.Priority, it.ID) {
				continue
			}
			if d2 := geom.Dist2(q.P, it.P); d2 < best.Dist {
				best.ID, best.Dist = it.ID, d2
			}
		}
		return
	}
	w.touch(id)
	near, far := nd.left, nd.right
	if q.P[nd.axis] >= nd.split {
		near, far = far, near
	}
	w.higherIn(near, q, best)
	w.higherIn(far, q, best)
}

// higherIn explores the subtree at id only when it holds an item above q
// and its cell is closer than the best found so far.
func (w *walker) higherIn(id NodeID, q *Item, best *Dependent) {
	nd := w.t.nd(id)
	if !kd.PriLess(q.Priority, q.ID, nd.maxPri, nd.maxPriID) || w.t.box(id).Dist2ToPoint(q.P) >= best.Dist {
		return
	}
	w.higher(id, q, best)
}
