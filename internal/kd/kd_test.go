package kd

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pimkd/internal/geom"
)

// refExactSplit is the sort-based object-median split the Pkd-tree baseline
// ran before it shared ExactSplit: every axis tried is fully sorted in a
// fresh slice. ExactSplit must choose the same cut.
func refExactSplit(items []Item, box geom.Box) (axis int, split float64, ok bool) {
	type axisWidth struct {
		axis  int
		width float64
	}
	dims := make([]axisWidth, len(box.Lo))
	for d := range box.Lo {
		dims[d] = axisWidth{d, box.Hi[d] - box.Lo[d]}
	}
	sort.SliceStable(dims, func(i, j int) bool { return dims[i].width > dims[j].width })
	n := len(items)
	coords := make([]float64, n)
	bestSkew := n + 1
	for _, aw := range dims {
		if aw.width <= 0 {
			break
		}
		a := aw.axis
		for i, it := range items {
			coords[i] = it.P[a]
		}
		sort.Float64s(coords)
		v := coords[n/2]
		for _, cand := range []float64{v, refNextDistinct(coords, v)} {
			left := sort.SearchFloat64s(coords, cand)
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

// refNextDistinct returns the smallest value in the sorted slice strictly
// greater than v (or v itself when none exists).
func refNextDistinct(sorted []float64, v float64) float64 {
	i := sort.SearchFloat64s(sorted, v)
	for ; i < len(sorted); i++ {
		if sorted[i] > v {
			return sorted[i]
		}
	}
	return v
}

// refMedianSplit is the sort-based skeleton split of the Pkd-tree baseline:
// the widest positive-width axis and the sample median along it, moved to
// the first strictly larger value when it equals the minimum.
func refMedianSplit(items []Item, box geom.Box) (axis int, split float64, ok bool) {
	type axisWidth struct {
		axis  int
		width float64
	}
	dims := make([]axisWidth, len(box.Lo))
	for d := range box.Lo {
		dims[d] = axisWidth{d, box.Hi[d] - box.Lo[d]}
	}
	sort.SliceStable(dims, func(i, j int) bool { return dims[i].width > dims[j].width })
	coords := make([]float64, len(items))
	for _, aw := range dims {
		if aw.width <= 0 {
			break
		}
		a := aw.axis
		for i, it := range items {
			coords[i] = it.P[a]
		}
		sort.Float64s(coords)
		v := coords[len(coords)/2]
		if v > coords[0] {
			return a, v, true
		}
		for _, c := range coords {
			if c > v {
				return a, c, true
			}
		}
	}
	return 0, 0, false
}

// randMultiset draws n points in dim dimensions with many duplicates: each
// coordinate comes from a grid of 1 to 8 levels, and a random share of the
// points sits on one heavy point.
func randMultiset(rng *rand.Rand, n, dim int) []Item {
	levels := make([]int, dim)
	for d := range levels {
		levels[d] = 1 + rng.Intn(8)
	}
	heavy := make(geom.Point, dim)
	for d := range heavy {
		heavy[d] = float64(rng.Intn(levels[d]))
	}
	heavyShare := rng.Float64()
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dim)
		if rng.Float64() < heavyShare {
			copy(p, heavy)
		} else {
			for d := range p {
				p[d] = float64(rng.Intn(levels[d]))
			}
		}
		items[i] = Item{P: p, ID: int32(i)}
	}
	return items
}

// randSize returns n in [2, 7095]: mostly small, sometimes across the 4096
// item fork of Box and Build.
func randSize(rng *rand.Rand) int {
	if rng.Intn(8) == 0 {
		return 2 + rng.Intn(7094)
	}
	return 2 + rng.Intn(300)
}

func TestSplitsMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 20000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		n, dim := randSize(rng), 1+rng.Intn(3)
		items := randMultiset(rng, n, dim)
		box := NewBox(dim)
		Box(items, box)
		coords := make([]float64, n)

		a, s, ok := ExactSplit(items, box, coords)
		ra, rs, rok := refExactSplit(items, box)
		if a != ra || s != rs || ok != rok {
			t.Fatalf("trial %d (n=%d dim=%d): ExactSplit (%d, %g, %v), reference (%d, %g, %v)", trial, n, dim, a, s, ok, ra, rs, rok)
		}
		a, s, ok = MedianSplit(items, box, coords)
		ra, rs, rok = refMedianSplit(items, box)
		if a != ra || s != rs || ok != rok {
			t.Fatalf("trial %d (n=%d dim=%d): MedianSplit (%d, %g, %v), reference (%d, %g, %v)", trial, n, dim, a, s, ok, ra, rs, rok)
		}
		if ok {
			if l := Partition(items, a, s); l < 1 || l > n-1 {
				t.Fatalf("trial %d: median cut leaves %d of %d on the left", trial, l, n)
			}
		}
		if ok != !Indivisible(items) {
			t.Fatalf("trial %d: split ok %v but Indivisible %v", trial, ok, Indivisible(items))
		}
	}
}

func TestParallelBoxMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, parGrain - 1, parGrain, parGrain + 1, 3*parGrain + 17} {
		for dim := 1; dim <= 3; dim++ {
			items := make([]Item, n)
			for i := range items {
				p := make(geom.Point, dim)
				for d := range p {
					p[d] = rng.NormFloat64()
				}
				items[i] = Item{P: p}
			}
			got, want := NewBox(dim), NewBox(dim)
			Box(items, got)
			boxSeq(items, want)
			for d := 0; d < dim; d++ {
				if got.Lo[d] != want.Lo[d] || got.Hi[d] != want.Hi[d] {
					t.Fatalf("n=%d dim=%d axis %d: box [%g, %g], scan [%g, %g]", n, dim, d, got.Lo[d], got.Hi[d], want.Lo[d], want.Hi[d])
				}
			}
		}
	}
}

// shape is a test node of Build: a leaf keeps its items, a join its cut.
type shape struct {
	axis  int
	split float64
	l, r  *shape
	n     int
	pts   []Item
}

func TestBuildShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n, dim := randSize(rng), 1+rng.Intn(3)
		items := randMultiset(rng, n, dim)
		leafSize := 1 + rng.Intn(16)
		root := Build(items, leafSize,
			func(items []Item) *shape { return &shape{n: len(items), pts: items} },
			func(axis int, split float64, l, r *shape, n int) *shape {
				return &shape{axis: axis, split: split, l: l, r: r, n: n}
			})
		var check func(nd *shape) int
		check = func(nd *shape) int {
			if nd.pts != nil {
				if len(nd.pts) > leafSize && !Indivisible(nd.pts) {
					t.Fatalf("trial %d: divisible leaf of %d > %d items", trial, len(nd.pts), leafSize)
				}
				return len(nd.pts)
			}
			for _, side := range []*shape{nd.l, nd.r} {
				var walk func(s *shape)
				walk = func(s *shape) {
					if s.pts == nil {
						walk(s.l)
						walk(s.r)
						return
					}
					for _, it := range s.pts {
						if (it.P[nd.axis] < nd.split) != (side == nd.l) {
							t.Fatalf("trial %d: item %d on the wrong side of a cut", trial, it.ID)
						}
					}
				}
				walk(side)
			}
			if got := check(nd.l) + check(nd.r); got != nd.n {
				t.Fatalf("trial %d: join of %d items has %d below it", trial, nd.n, got)
			}
			return nd.n
		}
		if got := check(root); got != n {
			t.Fatalf("trial %d: tree holds %d of %d items", trial, got, n)
		}
	}
	var none *shape = Build(nil, 8, func([]Item) *shape { return &shape{} }, nil)
	if none != nil {
		t.Fatal("Build of no items made a node")
	}
}

// TestBuildAllocs checks that a build below the fork threshold allocates
// its scratch (the coordinate slice, the box and the builder) and nothing
// per node when the node constructors allocate nothing.
func TestBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]Item, parGrain-1)
	for i := range items {
		items[i] = Item{P: geom.Point{rng.Float64(), rng.Float64()}, ID: int32(i)}
	}
	leaf := func(items []Item) int { return len(items) }
	join := func(_ int, _ float64, l, r, _ int) int { return l + r }
	var n int
	allocs := testing.AllocsPerRun(20, func() { n = Build(items, 8, leaf, join) })
	if n != len(items) {
		t.Fatalf("built %d of %d items", n, len(items))
	}
	if allocs > 3 {
		t.Errorf("a %d-item build allocates %.0f times, want at most 3", len(items), allocs)
	}
}

func TestSketchRoutesSampleToBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n, dim := randSize(rng), 1+rng.Intn(3)
		sample := randMultiset(rng, n, dim)
		slots := 1 << rng.Intn(7)
		sk, buckets, ops := BuildSketch(append([]Item(nil), sample...), slots, MedianSplit)
		if buckets < 1 || buckets > slots {
			t.Fatalf("trial %d: %d buckets for %d slots", trial, buckets, slots)
		}
		if ops < int64(n) {
			t.Fatalf("trial %d: ops %d below the root's %d points", trial, ops, n)
		}
		// Buckets are numbered left to right: a preorder walk meets them
		// in order.
		next := 0
		var walk func(s *Sketch)
		walk = func(s *Sketch) {
			if s.L == nil {
				if s.Bucket != next {
					t.Fatalf("trial %d: bucket %d where %d was due", trial, s.Bucket, next)
				}
				next++
				return
			}
			walk(s.L)
			walk(s.R)
		}
		walk(sk)
		hit := make([]bool, buckets)
		for _, it := range sample {
			hit[sk.Route(it.P)] = true
		}
		for b, h := range hit {
			if !h {
				t.Fatalf("trial %d: bucket %d gets no sample point", trial, b)
			}
		}
	}
}

// TestBuildForkDeterministic pins a hash of a build that forks (n above
// 4096, many duplicates): the tree, down to the order of every leaf's
// items, must not depend on GOMAXPROCS or on which half finishes first.
func TestBuildForkDeterministic(t *testing.T) {
	const want = 0x252fd7116cdc536a
	items := randMultiset(rand.New(rand.NewSource(5)), 3*parGrain+17, 3)
	for i := range items {
		items[i].P[1] += float64(i%97) / 97
	}
	root := Build(items, 8,
		func(items []Item) *shape { return &shape{n: len(items), pts: items} },
		func(axis int, split float64, l, r *shape, n int) *shape {
			return &shape{axis: axis, split: split, l: l, r: r, n: n}
		})
	h := fnv.New64a()
	var b [8]byte
	put := func(w uint64) {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	var walk func(nd *shape)
	walk = func(nd *shape) {
		put(uint64(nd.n))
		if nd.pts != nil {
			for _, it := range nd.pts {
				put(uint64(it.ID))
			}
			return
		}
		put(uint64(nd.axis))
		put(math.Float64bits(nd.split))
		walk(nd.l)
		walk(nd.r)
	}
	walk(root)
	if got := h.Sum64(); got != want {
		t.Fatalf("build hash %#x, want %#x", got, want)
	}
}
