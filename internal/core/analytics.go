package core

import (
	"sort"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
	"pimkd/internal/mathx"
	"pimkd/internal/parallel"
)

// ItemLess is the canonical item order used wherever answers assembled from
// different traversals (or different shards of a cluster) must compare
// bit-identical: ID, then coordinates, then priority.
func ItemLess(a, b Item) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	for d := range a.P {
		if a.P[d] != b.P[d] {
			return a.P[d] < b.P[d]
		}
	}
	return a.Priority < b.Priority
}

// SortItems sorts items into the canonical ItemLess order in place.
func SortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return ItemLess(items[i], items[j]) })
}

// ItemEq reports value equality of two items (Item holds a slice, so ==
// does not compile).
func ItemEq(a, b Item) bool {
	return !ItemLess(a, b) && !ItemLess(b, a)
}

// JoinPair is one result pair of a spatial join: a probe item and a stored
// item within the join radius of each other.
type JoinPair struct {
	Probe Item
	Match Item
}

// JoinPairLess orders join pairs canonically: by probe, then by match.
func JoinPairLess(a, b JoinPair) bool {
	if ItemLess(a.Probe, b.Probe) {
		return true
	}
	if ItemLess(b.Probe, a.Probe) {
		return false
	}
	return ItemLess(a.Match, b.Match)
}

// ProbeJoin answers a batch-probe spatial join: for each probe item, the
// stored items within Euclidean distance radius (inclusive), each match
// list in canonical ItemLess order. This is RadiusReport with the ordering
// contract that makes answers comparable across shard merges.
func (t *Tree) ProbeJoin(probes []Item, radius float64) [][]Item {
	centers := make([]geom.Point, len(probes))
	for i, p := range probes {
		centers[i] = p.P
	}
	res := t.RadiusReport(centers, radius)
	parallel.For(len(res), func(i int) { SortItems(res[i]) })
	return res
}

// JoinTrees computes the full tree-vs-tree spatial join: every pair
// (a, b) with a stored in probe, b stored in t, and dist(a,b) ≤ radius,
// in canonical JoinPairLess order; nil for a negative or NaN radius. The
// dual-tree traversal prunes whole subtree pairs whose bounding boxes are
// farther than radius apart; work is metered on t's machine (t is the
// "build" side; probe's leaves are pulled to wherever the traversal runs,
// charged as leaf pull words).
func (t *Tree) JoinTrees(probe *Tree, radius float64) []JoinPair {
	if probe == nil || !(radius >= 0) {
		return nil
	}
	r2 := radius * radius
	// Fan the probe side into independent top subtrees so the pair
	// traversals run in parallel, one walker each.
	probeRoots := probe.topSubtrees(4 * t.mach.P())
	pairs := make([][]JoinPair, len(probeRoots))
	t.walk("core/join:tree", len(probeRoots), nil, func(i int, w walker) {
		w.joinPair(t.root, probe, probeRoots[i], r2, &pairs[i])
		w.done(len(pairs[i]))
	})
	var all []JoinPair
	for _, p := range pairs {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return JoinPairLess(all[i], all[j]) })
	return all
}

// topSubtrees returns ≥ min(want, leaves) node IDs whose subtrees partition
// the tree's points — the roots of a breadth-first frontier.
func (t *Tree) topSubtrees(want int) []NodeID {
	if t.root == Nil {
		return nil
	}
	frontier := []NodeID{t.root}
	for len(frontier) < want {
		grew := false
		var next []NodeID
		for _, id := range frontier {
			nd := t.nd(id)
			if nd.leaf {
				next = append(next, id)
				continue
			}
			next = append(next, nd.left, nd.right)
			grew = true
		}
		frontier = next
		if !grew {
			break
		}
	}
	return frontier
}

// joinPair recurses over (t-subtree, probe-subtree) pairs closer than r2
// squared. t's side is touched under push-pull; scanning a t leaf against a
// probe leaf pulls the probe's points to the current processor.
func (w *walker) joinPair(id NodeID, probe *Tree, pid NodeID, r2 float64, out *[]JoinPair) {
	nd := w.t.nd(id)
	pnd := probe.nd(pid)
	if boxDist2(w.t.box(id), probe.box(pid)) > r2 {
		return
	}
	if nd.leaf && pnd.leaf {
		w.r.leaves++
		work := int64(len(nd.pts)) * int64(len(pnd.pts))
		if w.touch(id) {
			w.r.CPUWork(work)
		} else {
			w.r.Transfer(int(w.mod), int64(len(pnd.pts))*pointWords(w.t.cfg.Dim))
			w.r.ModuleWork(int(w.mod), work)
		}
		for _, p := range pnd.pts {
			for _, m := range nd.pts {
				if geom.Dist2(p.P, m.P) <= r2 {
					*out = append(*out, JoinPair{Probe: p, Match: m})
				}
			}
		}
		return
	}
	// Descend the larger non-leaf side to keep box pairs tight.
	if pnd.leaf || (!nd.leaf && int(nd.exact) >= int(pnd.exact)) {
		w.touch(id)
		w.joinPair(nd.left, probe, pid, r2, out)
		w.joinPair(nd.right, probe, pid, r2, out)
		return
	}
	w.joinPair(id, probe, pnd.left, r2, out)
	w.joinPair(id, probe, pnd.right, r2, out)
}

// boxDist2 is the squared minimum distance between two boxes (0 if they
// intersect).
func boxDist2(a, b geom.Box) float64 {
	d2 := 0.0
	for d := range a.Lo {
		switch {
		case a.Hi[d] < b.Lo[d]:
			gap := b.Lo[d] - a.Hi[d]
			d2 += gap * gap
		case b.Hi[d] < a.Lo[d]:
			gap := a.Lo[d] - b.Hi[d]
			d2 += gap * gap
		}
	}
	return d2
}

// BoxAggregate is a windowed aggregation answer: the number of stored
// points inside the query box plus the exact per-dimension coordinate sums
// (order-independent superaccumulators), from which Centroid derives. Two
// partial aggregates — e.g. from different shards — Merge into exactly the
// aggregate a single tree would have produced.
type BoxAggregate struct {
	Count int64
	Sums  []mathx.ExactSum
}

// Merge folds o into a. Aggregates over disjoint point sets merge into the
// aggregate of the union, bit-identically.
func (a *BoxAggregate) Merge(o *BoxAggregate) {
	a.Count += o.Count
	if len(a.Sums) < len(o.Sums) {
		s := make([]mathx.ExactSum, len(o.Sums))
		copy(s, a.Sums)
		a.Sums = s
	}
	for d := range o.Sums {
		a.Sums[d].Merge(&o.Sums[d])
	}
}

// Centroid returns the mean position of the aggregated points: each
// coordinate is the correctly rounded exact sum divided by the count.
// Deterministic given the multiset of points, regardless of traversal or
// merge order. Returns nil for an empty aggregate.
func (a *BoxAggregate) Centroid() []float64 {
	if a.Count == 0 {
		return nil
	}
	c := make([]float64, len(a.Sums))
	for d := range a.Sums {
		c[d] = a.Sums[d].Round() / float64(a.Count)
	}
	return c
}

// RangeAggregate answers a batch of windowed aggregation queries: for each
// box, the count and exact coordinate sums of the stored points inside it.
func (t *Tree) RangeAggregate(boxes []geom.Box) []BoxAggregate {
	res := make([]BoxAggregate, len(boxes))
	for i := range res {
		res[i].Sums = make([]mathx.ExactSum, t.cfg.Dim)
	}
	t.walk("core/range:aggregate", len(boxes), nil, func(i int, w walker) {
		agg, g := &res[i], kd.InBox(boxes[i])
		agg.Count = int64(w.inRegion(t.root, &g, func(it Item) {
			for d := range it.P {
				agg.Sums[d].Add(it.P[d])
			}
		}))
		w.done(int(agg.Count))
	})
	return res
}
