// Package prioritykd implements the shared-memory priority-search kd-tree
// of §6.1: a static kd-tree whose internal nodes are augmented with the
// maximum (priority, id) pair of their subtree, answering
// nearest-higher-priority queries — the dependent-point primitive of
// density peak clustering. The PIM version lives in internal/core
// (Tree.DependentPoints); this package is the ParGeo-style baseline and the
// reference the tests compare both against.
package prioritykd

import (
	"math"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
)

// Item is a point with a priority and an opaque id (kd.Item). Queries look
// for the nearest item strictly greater in (Priority, ID) lexicographic
// order.
type Item = kd.Item

// Meter counts the structural work of queries and construction.
type Meter struct {
	// NodeVisits counts tree nodes touched (the shared-memory
	// communication proxy).
	NodeVisits int64
	// PointOps counts point-granularity work.
	PointOps int64
}

// Tree is a static priority-search kd-tree.
type Tree struct {
	root  *node
	size  int
	Meter Meter
}

type node struct {
	axis     int
	split    float64
	l, r     *node
	box      geom.Box
	maxPri   float64
	maxPriID int32
	pts      []Item // leaf: its items, in input order
}

// New builds a tree over a copy of items with the given leaf bucket size
// (default 8 when leafSize <= 0).
func New(items []Item, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = 8
	}
	t := &Tree{size: len(items)}
	if len(items) == 0 {
		return t
	}
	pts := append([]Item(nil), items...)
	t.root = t.build(pts, make([]Item, len(pts)), make([]float64, len(pts)), leafSize)
	return t
}

// Size returns the number of stored items.
func (t *Tree) Size() int { return t.size }

// build splits pts at kd.MedianSplit's cut. scratch and coords are
// scratch of at least len(pts) slots.
func (t *Tree) build(pts, scratch []Item, coords []float64, leafSize int) *node {
	t.Meter.PointOps += int64(len(pts))
	nd := &node{box: kd.NewBox(len(pts[0].P)), maxPri: math.Inf(-1), maxPriID: -1}
	kd.Box(pts, nd.box)
	for _, it := range pts {
		if kd.PriLess(nd.maxPri, nd.maxPriID, it.Priority, it.ID) {
			nd.maxPri, nd.maxPriID = it.Priority, it.ID
		}
	}
	if len(pts) <= leafSize {
		nd.pts = pts
		return nd
	}
	axis, split, ok := kd.MedianSplit(pts, nd.box, coords)
	if !ok {
		nd.pts = pts
		return nd
	}
	// A stable partition keeps every leaf in input order, which decides
	// which of two equidistant items NearestHigher returns.
	l, r := 0, 0
	for _, it := range pts {
		if it.P[axis] < split {
			pts[l] = it
			l++
		} else {
			scratch[r] = it
			r++
		}
	}
	copy(pts[l:], scratch[:r])
	nd.axis, nd.split = axis, split
	nd.l = t.build(pts[:l], scratch, coords, leafSize)
	nd.r = t.build(pts[l:], scratch, coords, leafSize)
	return nd
}

// NearestHigher returns the id of the nearest stored item with
// (Priority, ID) strictly greater than (pri, id), and its squared distance;
// (-1, +Inf) when none exists. The search prunes subtrees whose priority
// augmentation cannot beat (pri, id) and whose cells cannot beat the
// current best distance.
func (t *Tree) NearestHigher(q geom.Point, pri float64, id int32) (int32, float64) {
	h := kd.NewHigher(Item{P: q, Priority: pri, ID: id})
	t.higher(t.root, &h)
	return h.ID, h.D2
}

// higher scans nd into h when it is worth it to h: a leaf's bucket, or an
// internal node's children, nearer child first.
func (t *Tree) higher(nd *node, h *kd.Higher) {
	if nd == nil || !h.Worth(nd.box, nd.maxPri, nd.maxPriID) {
		return
	}
	t.Meter.NodeVisits++
	if nd.pts != nil {
		t.Meter.PointOps += int64(len(nd.pts))
		h.Scan(nd.pts)
		return
	}
	near, far := nd.l, nd.r
	if h.Q.P[nd.axis] >= nd.split {
		near, far = far, near
	}
	t.higher(near, h)
	t.higher(far, h)
}
