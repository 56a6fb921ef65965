package core

import (
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/kd"
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
	// Every query answers min(k, size) candidates.
	want := min(k, t.size)
	t.walk("core/knn:backtrack", len(qs), leaves, func(i int, w walker) {
		s := kd.NewNearest(qs[i], w.r.kbest(k), shrink2)
		w.nearest(leaves[i], &s)
		w.backtrack(leaves[i], func(sib NodeID) { w.nearer(sib, &s) })
		res[i] = w.r.answers(i, want, s.Best)
		w.done(len(res[i]))
	})
	return res
}

// kbest returns the chunk's candidate set, empty, for k neighbours. It
// allocates only when k differs from the last query's: a batch may mix k.
func (tl *walkTally) kbest(k int) *heapx.KBest {
	if tl.best == nil || tl.best.K() != k {
		tl.best = heapx.NewKBest(k)
	}
	tl.best.Reset()
	return tl.best
}

// answers drains best into the chunk's answer slab and returns query i's
// answers as a slice of it that cannot grow into the next query's. When
// the slab has no room left it is replaced by one sized for the rest of
// the chunk at want answers a query, so a chunk whose queries all answer
// want candidates allocates one slab of exactly (hi-lo)·want.
func (tl *walkTally) answers(i, want int, best *heapx.KBest) []heapx.Candidate {
	if cap(tl.slab)-len(tl.slab) < best.Len() {
		tl.slab = make([]heapx.Candidate, 0, (tl.hi-i)*want)
	}
	lo := len(tl.slab)
	tl.slab = best.SortedInto(tl.slab)
	return tl.slab[lo:len(tl.slab):len(tl.slab)]
}

// nearest scans leaf id into s, or touches internal node id and explores
// its children depth-first, nearer child first.
func (w *walker) nearest(id NodeID, s *kd.Nearest) {
	nd := w.t.nd(id)
	if nd.leaf {
		s.Scan(w.scan(id))
		return
	}
	w.touch(id)
	near, far := nd.left, nd.right
	if s.Q[nd.axis] >= nd.split {
		near, far = far, near
	}
	w.nearer(near, s)
	w.nearer(far, s)
}

// nearer explores the subtree at id only when its cell is worth it to s.
func (w *walker) nearer(id NodeID, s *kd.Nearest) {
	if s.Worth(w.t.box(id)) {
		w.nearest(id, s)
	}
}
