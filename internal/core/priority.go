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
		pts[i] = qs[i].P
	}
	leaves := t.LeafSearch(pts)
	t.walk("core/priority:dependent", len(qs), leaves, func(i int, w walker) {
		h := kd.NewHigher(qs[i])
		w.higher(leaves[i], &h)
		w.backtrack(leaves[i], func(sib NodeID) { w.higherIn(sib, &h) })
		res[i] = Dependent{ID: h.ID, Dist: math.Sqrt(h.D2)}
		if h.ID < 0 {
			w.done(0)
		} else {
			w.done(1)
		}
	})
	return res
}

// higher scans leaf id into h, or touches internal node id and explores
// its children, nearer child first.
func (w *walker) higher(id NodeID, h *kd.Higher) {
	nd := w.t.nd(id)
	if nd.leaf {
		h.Scan(w.scan(id))
		return
	}
	w.touch(id)
	near, far := nd.left, nd.right
	if h.Q.P[nd.axis] >= nd.split {
		near, far = far, near
	}
	w.higherIn(near, h)
	w.higherIn(far, h)
}

// higherIn explores the subtree at id only when it is worth it to h.
func (w *walker) higherIn(id NodeID, h *kd.Higher) {
	nd := w.t.nd(id)
	if h.Worth(w.t.box(id), nd.maxPri, nd.maxPriID) {
		w.higher(id, h)
	}
}
