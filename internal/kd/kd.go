// Package kd holds the sequential kd-tree kernels that the PIM-kd-tree
// (internal/core) and its shared-memory baselines (internal/pkdtree, which
// internal/logtree builds on, and internal/prioritykd) share: the stored
// item, the tight bounding box, the object-median splits, the in-place
// partition, the exact build recursion and the sample sketch; and the
// query kernels: the box or ball search Region and the kNN and
// nearest-higher leaf scans with their prunes. The paper's Algorithm 2
// runs these same kernels on every module, and the Pkd-tree runs them on
// the host; keeping one copy means a baseline row compares algorithms, not
// two implementations of one split or one scan.
//
// Every kernel is deterministic: the parallel box and the parallel build
// fork produce bit-identical results at any GOMAXPROCS. The trees keep
// their own cost meters; Build calls a tree's node constructors once per
// node, so a tree meters inside them, and a tree's walk meters each node
// it visits and each bucket it hands to a scan.
package kd

import (
	"sync"

	"pimkd/internal/geom"
	"pimkd/internal/parallel"
)

// Item is a point plus an opaque identifier, the unit every tree stores.
// Priority is an optional augmentation used by the priority-search trees
// (§6.1): internal nodes track the maximum (Priority, ID) pair of their
// subtree, enabling nearest-higher-priority queries for density peak
// clustering. Leave it zero when unused.
type Item struct {
	P        geom.Point
	ID       int32
	Priority float64
}

// PriLess orders (priority, id) pairs lexicographically, the tie-break
// order used by density peak clustering.
func PriLess(p1 float64, id1 int32, p2 float64, id2 int32) bool {
	if p1 != p2 {
		return p1 < p2
	}
	return id1 < id2
}

// parGrain is the item count at and above which Box scans chunks in
// parallel and Build forks its two halves. Results are identical either
// way: float64 min/max is exact and commutative, and the recursion's
// outputs do not depend on evaluation order.
const parGrain = 4096

// NewBox returns a fresh dim-dimensional box backed by one allocation.
func NewBox(dim int) geom.Box {
	buf := make([]float64, 2*dim)
	return geom.Box{Lo: buf[:dim:dim], Hi: buf[dim:]}
}

// Box writes the tight bounding box of items (non-empty) into box. Above
// parGrain items the chunk boxes merge under a mutex in arbitrary order,
// which is bit-identical to the sequential scan.
func Box(items []Item, box geom.Box) {
	if len(items) < parGrain {
		boxSeq(items, box)
		return
	}
	var mu sync.Mutex
	first := true
	parallel.ForChunked(len(items), func(lo, hi int) {
		b := NewBox(len(box.Lo))
		boxSeq(items[lo:hi], b)
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

func boxSeq(items []Item, box geom.Box) {
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

// Indivisible reports whether items is non-empty and every item sits at
// the same point: a multiset no split can divide, which must stay one
// (possibly oversized) leaf.
func Indivisible(items []Item) bool {
	if len(items) == 0 {
		return false
	}
	for _, it := range items[1:] {
		if !it.P.Equal(items[0].P) {
			return false
		}
	}
	return true
}

// Partition moves the items with P[axis] < split to the front of items,
// in place, and returns how many there are. Every tree routes with the
// same rule (v < split goes left), so routing stays consistent across
// builds, rebuilds, updates and searches.
func Partition(items []Item, axis int, split float64) int {
	i, j := 0, len(items)-1
	for i <= j {
		if items[i].P[axis] < split {
			i++
		} else {
			items[i], items[j] = items[j], items[i]
			j--
		}
	}
	return i
}

// A Splitter chooses the cut of items, whose tight box is box, such that
// both sides of Partition(items, axis, split) are non-empty; ok is false
// when no such cut exists. coords is scratch of at least len(items) slots.
type Splitter func(items []Item, box geom.Box, coords []float64) (axis int, split float64, ok bool)

// ExactSplit is the object-median split of the exact build. Axes are
// tried widest-first, equal widths in axis order; on each, the two
// candidate cuts are the rank-n/2 coordinate and the next distinct value
// above it. The first axis whose best cut is within n/16 of even wins;
// otherwise, when duplicate coordinates make every axis lopsided, the most
// even cut over all axes does. ok is false when all points are identical.
func ExactSplit(items []Item, box geom.Box, coords []float64) (axis int, split float64, ok bool) {
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
		next, hasNext := nextAbove(coords, v, box.Hi[a])
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

// MedianSplit is the sample-median split of the Pkd-tree skeleton and the
// priority-search tree: the widest axis (the lowest index on ties) and its
// rank-n/2 coordinate, bumped to the next distinct value when it equals
// the minimum, so the left side is never empty. ok is false when every
// axis has zero width.
func MedianSplit(items []Item, box geom.Box, coords []float64) (axis int, split float64, ok bool) {
	axis, width := box.LongestAxis()
	if width <= 0 {
		return 0, 0, false
	}
	coords = coords[:len(items)]
	for i, it := range items {
		coords[i] = it.P[axis]
	}
	split = quickMedian(coords)
	if split > box.Lo[axis] {
		return axis, split, true
	}
	next, _ := nextAbove(coords, split, box.Hi[axis])
	return axis, next, true
}

// nextAbove returns the smallest coordinate strictly above v, and whether
// one exists; hi is any bound at or above the maximum coordinate.
func nextAbove(coords []float64, v, hi float64) (float64, bool) {
	next, found := hi+1, false
	for _, c := range coords {
		if c > v && c < next {
			next, found = c, true
		}
	}
	return next, found
}

// quickMedian returns the element of rank len/2 using in-place quickselect
// (deterministic median-of-three pivoting). It permutes coords.
func quickMedian(coords []float64) float64 {
	k := len(coords) / 2
	lo, hi := 0, len(coords)-1
	for lo < hi {
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
