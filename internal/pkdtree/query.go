package pkdtree

import (
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// LeafSearch returns the items stored in the leaf that the query point
// routes to, along with the depth of that leaf. It is the primitive point
// query of Table 1.
func (t *Tree) LeafSearch(q geom.Point) (items []Item, depth int) {
	if t.root == nil {
		return nil, 0
	}
	nd := t.root
	for !nd.leaf() {
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		depth++
		if routeLeft(q[int(nd.axis)], nd.split) {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	atomic.AddInt64(&t.Meter.NodeVisits, 1)
	return nd.pts, depth + 1
}

// Contains reports whether an item with the given coordinates and ID is
// stored in the tree.
func (t *Tree) Contains(it Item) bool {
	pts, _ := t.LeafSearch(it.P)
	for _, p := range pts {
		if p.ID == it.ID && p.P.Equal(it.P) {
			return true
		}
	}
	return false
}

// KNN returns the k nearest neighbors of q by ascending distance (fewer if
// the tree holds fewer than k items), using the classic prune-by-bounding-
// box depth-first search.
func (t *Tree) KNN(q geom.Point, k int) []heapx.Candidate {
	best := heapx.NewKBest(k)
	t.knnVisit(t.root, q, best, 1)
	return best.Sorted()
}

// ANN returns (1+eps)-approximate k nearest neighbors: each reported
// distance is at most (1+eps) times the true k-th distance. eps = 0 matches
// KNN exactly.
func (t *Tree) ANN(q geom.Point, k int, eps float64) []heapx.Candidate {
	best := heapx.NewKBest(k)
	t.knnVisit(t.root, q, best, (1+eps)*(1+eps))
	return best.Sorted()
}

// knnVisit prunes a subtree when its box distance exceeds bound/shrink2
// (shrink2 = (1+eps)² implements the ANN early-termination rule).
func (t *Tree) knnVisit(nd *node, q geom.Point, best *heapx.KBest, shrink2 float64) {
	if nd == nil {
		return
	}
	atomic.AddInt64(&t.Meter.NodeVisits, 1)
	if nd.leaf() {
		atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
		for _, it := range nd.pts {
			best.Offer(geom.Dist2(q, it.P), it.ID)
		}
		return
	}
	near, far := nd.left, nd.right
	if !routeLeft(q[int(nd.axis)], nd.split) {
		near, far = far, near
	}
	// <= not <: the canonical (dist2, id) tie-break means a cell at exactly
	// the bound can still hold a displacing equal-distance candidate.
	if near.box.Dist2ToPoint(q)*shrink2 <= best.Bound() {
		t.knnVisit(near, q, best, shrink2)
	}
	if far.box.Dist2ToPoint(q)*shrink2 <= best.Bound() {
		t.knnVisit(far, q, best, shrink2)
	}
}

// RangeReport returns all items inside the query box.
func (t *Tree) RangeReport(box geom.Box) []Item {
	var out []Item
	var visit func(nd *node)
	visit = func(nd *node) {
		if nd == nil || !box.Intersects(nd.box) {
			return
		}
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		if box.ContainsBox(nd.box) {
			out = collect(nd, out)
			atomic.AddInt64(&t.Meter.PointOps, int64(nd.size))
			return
		}
		if nd.leaf() {
			atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
			for _, it := range nd.pts {
				if box.Contains(it.P) {
					out = append(out, it)
				}
			}
			return
		}
		visit(nd.left)
		visit(nd.right)
	}
	visit(t.root)
	return out
}

// RangeCount returns the number of items inside the query box, using
// subtree-size shortcuts for fully contained cells.
func (t *Tree) RangeCount(box geom.Box) int {
	var visit func(nd *node) int
	visit = func(nd *node) int {
		if nd == nil || !box.Intersects(nd.box) {
			return 0
		}
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		if box.ContainsBox(nd.box) {
			return nd.size
		}
		if nd.leaf() {
			atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
			c := 0
			for _, it := range nd.pts {
				if box.Contains(it.P) {
					c++
				}
			}
			return c
		}
		return visit(nd.left) + visit(nd.right)
	}
	return visit(t.root)
}

// RadiusCount returns the number of items within Euclidean distance r of q
// (inclusive), the primitive used by density peak clustering. A negative or
// NaN r counts nothing.
func (t *Tree) RadiusCount(q geom.Point, r float64) int {
	if !(r >= 0) {
		return 0
	}
	r2 := r * r
	var visit func(nd *node) int
	visit = func(nd *node) int {
		if nd == nil || nd.box.Dist2ToPoint(q) > r2 {
			return 0
		}
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		if nd.box.InsideBall(q, r) {
			return nd.size
		}
		if nd.leaf() {
			atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
			c := 0
			for _, it := range nd.pts {
				if geom.Dist2(q, it.P) <= r2 {
					c++
				}
			}
			return c
		}
		return visit(nd.left) + visit(nd.right)
	}
	return visit(t.root)
}

// RadiusReport returns all items within Euclidean distance r of q (none
// for a negative or NaN r).
func (t *Tree) RadiusReport(q geom.Point, r float64) []Item {
	if !(r >= 0) {
		return nil
	}
	r2 := r * r
	var out []Item
	var visit func(nd *node)
	visit = func(nd *node) {
		if nd == nil || nd.box.Dist2ToPoint(q) > r2 {
			return
		}
		atomic.AddInt64(&t.Meter.NodeVisits, 1)
		if nd.leaf() {
			atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
			for _, it := range nd.pts {
				if geom.Dist2(q, it.P) <= r2 {
					out = append(out, it)
				}
			}
			return
		}
		visit(nd.left)
		visit(nd.right)
	}
	visit(t.root)
	return out
}
