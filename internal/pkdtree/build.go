package pkdtree

import (
	"math/rand"
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// build constructs a subtree over items using the PKD multi-level skeleton
// scheme: sample a sketch sized to the cache, build h levels of splitting
// hyperplanes from it, flush all points through the skeleton in one pass,
// and recurse on the buckets in parallel. Ownership of the items slice
// passes to the tree.
func (t *Tree) build(items []Item) *node {
	return t.buildSeeded(items, uint64(t.cfg.Seed)+0x51ed2701)
}

func (t *Tree) buildSeeded(items []Item, seed uint64) *node {
	n := len(items)
	if n == 0 {
		return nil
	}
	t.meterPass(n)
	if n <= t.cfg.LeafSize || kd.Indivisible(items) {
		// All points identical: an oversized leaf is the only legal shape.
		return newLeaf(items)
	}

	// Levels per pass: as many as the skeleton sample fits in cache, but no
	// more than needed to reach leaf-sized buckets.
	h := 1
	for (2<<h)*t.cfg.Oversample <= t.cfg.CacheM && (n>>h) > t.cfg.LeafSize && h < 20 {
		h++
	}

	rng := rand.New(rand.NewSource(int64(pim.Mix64(seed))))
	sampleSize := (1 << h) * t.cfg.Oversample
	if sampleSize > n {
		sampleSize = n
	}
	sample := make([]Item, sampleSize)
	for i := range sample {
		sample[i] = items[rng.Intn(n)]
	}
	sk, nb, _ := kd.BuildSketch(sample, 1<<h, kd.MedianSplit)

	// Flush all items through the skeleton into buckets with a stable
	// parallel scatter (bucket contents and order match the sequential
	// append loop exactly).
	scattered, offs := parallel.CountingSortByKey(items, nb, func(it Item) int {
		return sk.Route(it.P)
	})
	buckets := make([][]Item, nb)
	for b := 0; b < nb; b++ {
		buckets[b] = scattered[offs[b]:offs[b+1]:offs[b+1]]
	}
	atomic.AddInt64(&t.Meter.PointOps, int64(n*h))
	for _, b := range buckets {
		if len(b) == n {
			// No progress (heavy duplicates defeated the sample): fall back
			// to the exact object-median build.
			return t.buildExact(items)
		}
	}

	// Recurse on buckets (in parallel) and assemble the skeleton into real
	// nodes, collapsing empty sides and fixing any α-violation exactly.
	built := make([]*node, nb)
	parallel.For(nb, func(i int) {
		built[i] = t.buildSeeded(buckets[i], pim.Mix64(seed)+uint64(i)+1)
	})
	return t.assemble(sk, built)
}

// meterPass charges a construction or rebuild pass over n points: n point
// operations, plus n streaming transfers when the working set exceeds the
// cache.
func (t *Tree) meterPass(n int) {
	atomic.AddInt64(&t.Meter.PointOps, int64(n))
	if n*t.cfg.Dim > t.cfg.CacheM {
		atomic.AddInt64(&t.Meter.CacheXfers, int64(n))
	}
}

// newLeaf wraps items into a leaf node (items must be non-empty). The
// bucket copies the input so that later appends to one leaf can never
// scribble over a sibling leaf sharing the same partition backing array.
func newLeaf(items []Item) *node {
	pts := make([]Item, len(items))
	copy(pts, items)
	box := kd.NewBox(len(pts[0].P))
	kd.Box(pts, box)
	return &node{size: len(pts), box: box, pts: pts}
}

// assemble turns a routed skeleton plus built bucket subtrees into real
// nodes, dropping empty sides and exactly rebuilding any α-violating join.
func (t *Tree) assemble(s *kd.Sketch, built []*node) *node {
	if s.L == nil {
		return built[s.Bucket]
	}
	l := t.assemble(s.L, built)
	r := t.assemble(s.R, built)
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if violated(l.size, r.size, t.cfg.Alpha) {
		items := make([]Item, 0, l.size+r.size)
		items = collect(l, items)
		items = collect(r, items)
		atomic.AddInt64(&t.Meter.PointOps, int64(len(items)))
		return t.buildExact(items)
	}
	return join(s.Axis, s.Split, l, r)
}

// join makes the split node over l and r.
func join(axis int32, split float64, l, r *node) *node {
	return &node{axis: axis, split: split, left: l, right: r, size: l.size + r.size, box: unionBox(l.box, r.box)}
}

func unionBox(a, b geom.Box) geom.Box {
	u := kd.NewBox(len(a.Lo))
	copy(u.Lo, a.Lo)
	copy(u.Hi, a.Hi)
	for d := range u.Lo {
		if b.Lo[d] < u.Lo[d] {
			u.Lo[d] = b.Lo[d]
		}
		if b.Hi[d] > u.Hi[d] {
			u.Hi[d] = b.Hi[d]
		}
	}
	return u
}

func collect(nd *node, out []Item) []Item {
	if nd == nil {
		return out
	}
	if nd.leaf() {
		return append(out, nd.pts...)
	}
	out = collect(nd.left, out)
	return collect(nd.right, out)
}

// buildExact is the deterministic object-median build (kd.Build) used as
// the fallback for degenerate data and for rebalancing rebuilds of small
// subtrees. It guarantees progress on any input (identical points become
// one leaf), and meters a pass over each node's points.
func (t *Tree) buildExact(items []Item) *node {
	return kd.Build(items, t.cfg.LeafSize, func(items []Item) *node {
		t.meterPass(len(items))
		return newLeaf(items)
	}, func(axis int, split float64, l, r *node, n int) *node {
		t.meterPass(n)
		return join(int32(axis), split, l, r)
	})
}
