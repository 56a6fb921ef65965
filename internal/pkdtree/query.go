package pkdtree

import (
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/kd"
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
		nd = nd.child(q)
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
	return t.ANN(q, k, 0)
}

// ANN returns (1+eps)-approximate k nearest neighbors: each reported
// distance is at most (1+eps) times the true k-th distance. eps = 0 matches
// KNN exactly.
func (t *Tree) ANN(q geom.Point, k int, eps float64) []heapx.Candidate {
	s := kd.NewNearest(q, heapx.NewKBest(k), (1+eps)*(1+eps))
	if t.root != nil {
		t.nearest(t.root, &s)
	}
	return s.Best.Sorted()
}

// nearest scans leaf nd into s, or explores nd's children depth-first,
// nearer child first, when their cells are worth it to s.
func (t *Tree) nearest(nd *node, s *kd.Nearest) {
	atomic.AddInt64(&t.Meter.NodeVisits, 1)
	if nd.leaf() {
		atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
		s.Scan(nd.pts)
		return
	}
	near, far := nd.left, nd.right
	if !routeLeft(s.Q[int(nd.axis)], nd.split) {
		near, far = far, near
	}
	if s.Worth(near.box) {
		t.nearest(near, s)
	}
	if s.Worth(far.box) {
		t.nearest(far, s)
	}
}

// RangeReport returns all items inside the query box.
func (t *Tree) RangeReport(box geom.Box) []Item {
	var out []Item
	g := kd.InBox(box)
	t.inRegion(t.root, &g, &out)
	return out
}

// RangeCount returns the number of items inside the query box, using
// subtree-size shortcuts for fully contained cells.
func (t *Tree) RangeCount(box geom.Box) int {
	g := kd.InBox(box)
	return t.inRegion(t.root, &g, nil)
}

// RadiusCount returns the number of items within Euclidean distance r of q
// (inclusive), the primitive used by density peak clustering. A negative or
// NaN r counts nothing.
func (t *Tree) RadiusCount(q geom.Point, r float64) int {
	g := kd.Ball(q, r)
	return t.inRegion(t.root, &g, nil)
}

// RadiusReport returns all items within Euclidean distance r of q (none
// for a negative or NaN r).
func (t *Tree) RadiusReport(q geom.Point, r float64) []Item {
	var out []Item
	g := kd.Ball(q, r)
	t.inRegion(t.root, &g, &out)
	return out
}

// inRegion walks the subtree at nd and returns the number of its items
// inside g, appending each to *out unless out is nil. A subtree g covers
// counts from its exact size after a visit to its root alone; reporting
// collects it whole, at one point op per item.
func (t *Tree) inRegion(nd *node, g *kd.Region, out *[]Item) int {
	if nd == nil || !g.Meets(nd.box) {
		return 0
	}
	atomic.AddInt64(&t.Meter.NodeVisits, 1)
	if g.Covers(nd.box) {
		if out != nil {
			*out = collect(nd, *out)
			atomic.AddInt64(&t.Meter.PointOps, int64(nd.size))
		}
		return nd.size
	}
	if nd.leaf() {
		atomic.AddInt64(&t.Meter.PointOps, int64(len(nd.pts)))
		n := 0
		for _, it := range nd.pts {
			if g.Has(it.P) {
				n++
				if out != nil {
					*out = append(*out, it)
				}
			}
		}
		return n
	}
	return t.inRegion(nd.left, g, out) + t.inRegion(nd.right, g, out)
}
