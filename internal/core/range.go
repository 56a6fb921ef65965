package core

import (
	"pimkd/internal/geom"
	"pimkd/internal/kd"
)

// RangeReport answers a batch of orthogonal range queries, returning the
// items inside each box. Traversal is the standard candidate-cell descent
// (Lemma 4.7); query state hops off-chip only when it crosses to a node the
// current module holds no copy of.
func (t *Tree) RangeReport(boxes []geom.Box) [][]Item {
	res := make([][]Item, len(boxes))
	t.walk("core/range:report", len(boxes), nil, func(i int, w walker) {
		g := kd.InBox(boxes[i])
		w.done(w.inRegion(t.root, &g, func(it Item) { res[i] = append(res[i], it) }))
	})
	return res
}

// RangeCount answers a batch of orthogonal range counting queries using
// subtree-size shortcuts for fully contained cells.
func (t *Tree) RangeCount(boxes []geom.Box) []int {
	res := make([]int, len(boxes))
	t.walk("core/range:count", len(boxes), nil, func(i int, w walker) {
		g := kd.InBox(boxes[i])
		res[i] = w.inRegion(t.root, &g, nil)
		w.done(res[i])
	})
	return res
}

// RadiusCount returns, for each center, the number of stored points within
// Euclidean distance radius (inclusive) — the density primitive of DPC. A
// negative or NaN radius counts nothing.
func (t *Tree) RadiusCount(centers []geom.Point, radius float64) []int {
	res := make([]int, len(centers))
	t.walk("core/range:radius-count", len(centers), nil, func(i int, w walker) {
		g := kd.Ball(centers[i], radius)
		res[i] = w.inRegion(t.root, &g, nil)
		w.done(res[i])
	})
	return res
}

// RadiusReport returns, for each center, the items within Euclidean
// distance radius (inclusive). A negative or NaN radius reports nothing.
func (t *Tree) RadiusReport(centers []geom.Point, radius float64) [][]Item {
	res := make([][]Item, len(centers))
	t.walk("core/range:radius-report", len(centers), nil, func(i int, w walker) {
		g := kd.Ball(centers[i], radius)
		w.done(w.inRegion(t.root, &g, func(it Item) { res[i] = append(res[i], it) }))
	})
	return res
}

// inRegion walks the subtree at id and returns the number of its items
// inside g, passing each to hit. Without a hit callback it only counts, and
// counts a subtree g covers from its exact size after touching the
// subtree's root alone.
func (w *walker) inRegion(id NodeID, g *kd.Region, hit func(Item)) int {
	nd, cell := w.t.nd(id), w.t.box(id)
	if !g.Meets(cell) {
		return 0
	}
	if hit == nil && g.Covers(cell) {
		w.touch(id)
		return int(nd.exact)
	}
	if !nd.leaf {
		w.touch(id)
		return w.inRegion(nd.left, g, hit) + w.inRegion(nd.right, g, hit)
	}
	n := 0
	for _, it := range w.scan(id) {
		if g.Has(it.P) {
			n++
			if hit != nil {
				hit(it)
			}
		}
	}
	return n
}
