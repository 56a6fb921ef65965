package kd

import (
	"pimkd/internal/geom"
	"pimkd/internal/parallel"
)

// Build is the exact object-median build: it builds a kd-tree over items
// with ExactSplit and Partition and returns its root, or N's zero value
// for no items. leaf makes a node of at most leafSize items, or of an
// indivisible multiset; join makes a split node of n items once both of
// its children are built. Every call of either makes exactly one node, so
// a tree meters its build inside them. Above 4096 items the two halves
// build in parallel, so leaf and join must be safe for concurrent use; the
// tree does not depend on it. Build permutes items, and the slices it
// hands to leaf alias them.
func Build[N any](items []Item, leafSize int, leaf func(items []Item) N, join func(axis int, split float64, l, r N, n int) N) N {
	if len(items) == 0 {
		var none N
		return none
	}
	b := builder[N]{leafSize: leafSize, leaf: leaf, join: join}
	return b.build(items, make([]float64, len(items)), NewBox(len(items[0].P)))
}

type builder[N any] struct {
	leafSize int
	leaf     func([]Item) N
	join     func(axis int, split float64, l, r N, n int) N
}

// build is Build's recursion. coords is ExactSplit's scratch, one slot per
// item: each half of a split recurses on its own half of it, so the
// parallel fork shares no scratch. box is the scratch for a node's tight
// box, which only chooses its split: the recursion reuses it, and a
// parallel fork hands its right half a fresh one.
func (b *builder[N]) build(items []Item, coords []float64, box geom.Box) N {
	n := len(items)
	if n <= b.leafSize {
		return b.leaf(items)
	}
	Box(items, box)
	axis, split, ok := ExactSplit(items, box, coords)
	if !ok {
		return b.leaf(items)
	}
	i := Partition(items, axis, split)
	var l, r N
	if n >= parGrain {
		l, r = b.fork(items, coords, box, i)
	} else {
		l = b.build(items[:i], coords[:i], box)
		r = b.build(items[i:], coords[i:], box)
	}
	return b.join(axis, split, l, r, n)
}

// fork builds the halves items[:i] and items[i:] in parallel. It is its
// own method because the closures capture l and r, which moves them to the
// heap: here only a forked call pays for that, not every node.
func (b *builder[N]) fork(items []Item, coords []float64, box geom.Box, i int) (l, r N) {
	parallel.Do(
		func() { l = b.build(items[:i], coords[:i], box) },
		func() { r = b.build(items[i:], coords[i:], NewBox(len(box.Lo))) },
	)
	return l, r
}

// Sketch is a node of a sample sketch: the top levels of a kd-tree built
// from a sample, whose leaves (L == nil) are numbered buckets. Routing a
// point through it names the bucket its subspace maps to.
type Sketch struct {
	Axis   int32
	Split  float64
	L, R   *Sketch
	Bucket int
}

// Route returns the bucket of the sketch leaf that p routes to.
func (s *Sketch) Route(p geom.Point) int {
	for s.L != nil {
		if p[s.Axis] < s.Split {
			s = s.L
		} else {
			s = s.R
		}
	}
	return s.Bucket
}

// BuildSketch builds a sketch with up to slots bucket leaves over sample,
// cutting each node with split and giving its halves slots/2 and the rest.
// A node of one slot, fewer than two sample points or no valid cut is a
// bucket. Buckets are numbered left to right; buckets is their count and
// ops the point work, one per sample point per node. BuildSketch permutes
// sample.
func BuildSketch(sample []Item, slots int, split Splitter) (root *Sketch, buckets int, ops int64) {
	box := NewBox(len(sample[0].P))
	coords := make([]float64, len(sample))
	var rec func(items []Item, slots int) *Sketch
	rec = func(items []Item, slots int) *Sketch {
		ops += int64(len(items))
		if slots > 1 && len(items) >= 2 {
			Box(items, box)
			if axis, cut, ok := split(items, box, coords); ok {
				i := Partition(items, axis, cut)
				return &Sketch{
					Axis:  int32(axis),
					Split: cut,
					L:     rec(items[:i], slots/2),
					R:     rec(items[i:], slots-slots/2),
				}
			}
		}
		buckets++
		return &Sketch{Bucket: buckets - 1}
	}
	return rec(sample, slots), buckets, ops
}
