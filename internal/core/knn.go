package core

import (
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// KNN answers a batch of k-nearest-neighbor queries, returning for each
// query up to k candidates by ascending distance. Each query first routes
// to its leaf with the batched LeafSearch and then backtracks through the
// tree; the dual-way caching keeps the walk local within a group (bottom-up
// chains for ascents, top-down subtrees for sibling descents), so off-chip
// hops happen only at group borders and at up-down turning points.
func (t *Tree) KNN(qs []geom.Point, k int) [][]heapx.Candidate {
	return t.ANN(qs, k, 0)
}

// ANN answers (1+eps)-approximate kNN: every reported distance is at most
// (1+eps) times the true k-th distance. eps = 0 is exact; a negative or NaN
// eps is clamped to exact.
func (t *Tree) ANN(qs []geom.Point, k int, eps float64) [][]heapx.Candidate {
	res := make([][]heapx.Candidate, len(qs))
	if t.root == Nil || k < 1 {
		return res
	}
	if !(eps >= 0) {
		eps = 0
	}
	shrink2 := (1 + eps) * (1 + eps)
	leaves := t.LeafSearch(qs)
	t.walk("core/knn:backtrack", len(qs), leaves, func(i int, w walker) {
		q, best := qs[i], heapx.NewKBest(k)
		w.nearest(leaves[i], q, best, shrink2)
		w.backtrack(leaves[i], func(sib NodeID) { w.nearer(sib, q, best, shrink2) })
		res[i] = best.Sorted()
		w.done(len(res[i]))
	})
	return res
}

// nearest scans leaf id into best, or touches internal node id and explores
// its children depth-first, nearer child first.
func (w *walker) nearest(id NodeID, q geom.Point, best *heapx.KBest, shrink2 float64) {
	nd := w.t.nd(id)
	if nd.leaf {
		for _, it := range w.scan(id) {
			best.OfferCand(heapx.Candidate{Dist2: geom.Dist2(q, it.P), ID: it.ID, P: it.P})
		}
		return
	}
	w.touch(id)
	near, far := nd.left, nd.right
	if q[nd.axis] >= nd.split {
		near, far = far, near
	}
	w.nearer(near, q, best, shrink2)
	w.nearer(far, q, best, shrink2)
}

// nearer explores the subtree at id only when its cell can still beat the
// (ANN-shrunk) candidate bound. <= not <: with the canonical (dist2, id)
// tie-break a cell at exactly the bound can still hold a displacing
// candidate.
func (w *walker) nearer(id NodeID, q geom.Point, best *heapx.KBest, shrink2 float64) {
	if w.t.box(id).Dist2ToPoint(q)*shrink2 <= best.Bound() {
		w.nearest(id, q, best, shrink2)
	}
}
