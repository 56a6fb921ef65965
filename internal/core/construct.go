package core

import (
	"slices"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
	"pimkd/internal/mathx"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// Build bulk-loads items into an empty tree using the paper's Algorithm 2:
// the CPU builds a cache-resident sketch from a sample and scatters the
// points into P buckets; each PIM module builds its bucket's subtree
// locally and in parallel; the CPU stitches the results, runs the log-star
// decomposition, and scatters the replicas of the dual-way caching onto
// hash-random modules. Build panics on a non-empty tree (use BatchInsert).
func (t *Tree) Build(items []Item) {
	if t.root != Nil {
		panic("core: Build on a non-empty tree; use BatchInsert")
	}
	n := len(items)
	if n == 0 {
		return
	}
	own := make([]Item, n)
	copy(own, items)
	t.size = n
	p := t.mach.P()

	small := 4 * p * t.cfg.LeafSize
	if small < 1024 {
		small = 1024
	}
	if n <= small {
		// The whole input fits the CPU cache: build on-chip (Algorithm 1's
		// shared-memory path), then place and replicate.
		var ops int64
		b := buildExactB(own, t.cfg.LeafSize, &ops)
		t.mach.CPUPhase(ops, int64(mathx.CeilLog2(n)*mathx.CeilLog2(n)))
		t.root = t.graft(b, Nil, geom.UniverseBox(t.cfg.Dim))
		t.mach.RunRound(func(r *pim.Round) {
			r.Label("core/build:decorate")
			t.decorate(t.root, r, n)
		})
		return
	}

	// Phase A (CPU, in cache): sample a sketch and route every point to a
	// bucket ≈ one module's share. The sketch must fit the CPU cache (the
	// M = Ω(P log³ n) assumption of Theorem 3.5), so σ is capped by M.
	sigma := mathx.MaxInt(32, mathx.CeilLog2(n))
	if cap := t.mach.CacheM() / (4 * mathx.MaxInt(1, t.cfg.Dim) * p); cap > 0 && sigma > cap {
		sigma = mathx.MaxInt(1, cap)
	}
	sampleSize := mathx.MinInt(n, p*sigma)
	sample := make([]Item, sampleSize)
	for i := range sample {
		sample[i] = own[t.rng.Intn(n)]
	}
	sk, buckets, sketchOps := kd.BuildSketch(sample, p, kd.ExactSplit)
	depth := mathx.CeilLog2(buckets) + 1
	// Stable parallel scatter: bucket b's slice holds its points in input
	// order, exactly as the sequential append loop produced, so the
	// per-module builds (and their metered costs) are unchanged.
	scattered, offs := parallel.CountingSortByKey(own, buckets, func(it Item) int {
		return sk.Route(it.P)
	})
	parts := make([][]Item, buckets)
	for m := 0; m < buckets; m++ {
		parts[m] = scattered[offs[m]:offs[m+1]:offs[m+1]]
	}
	t.mach.CPUPhase(sketchOps+int64(n*depth),
		int64(mathx.CeilLog2(p)*mathx.CeilLog2(p)+mathx.CeilLog2(n)))

	// Phase B (one BSP round): ship each bucket to its module, build the
	// subtree there, and ship the structure back.
	subs := make([]*bnode, buckets)
	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/build:modules")
		for m := 0; m < buckets; m++ {
			r.Transfer(m%p, int64(len(parts[m]))*pointWords(t.cfg.Dim))
		}
		r.OnModules(func(ctx *pim.ModuleCtx) {
			for m := ctx.ID(); m < buckets; m += p {
				if len(parts[m]) == 0 {
					continue
				}
				var ops int64
				subs[m] = buildExactB(parts[m], t.cfg.LeafSize, &ops)
				ctx.Work(ops)
				ctx.Transfer(int64(countB(subs[m])) * nodeWords(t.cfg.Dim))
			}
		})
	})

	// Phase C (CPU): stitch sketch + module subtrees, decompose, replicate.
	whole := stitchSketch(sk, subs)
	nodes := countB(whole)
	t.mach.CPUPhase(int64(nodes), int64(mathx.CeilLog2(n)))
	// Grow the arena once for the whole tree rather than through append's
	// chain of copies. Only this bulk path does: a tree grown by small
	// batches keeps append's growth, whose capacities depend on the arena's
	// length alone, not on how the batches happened to be cut.
	if need := nodes - len(t.freeL); need > 0 {
		t.nodes = slices.Grow(t.nodes, need)
	}
	t.root = t.graft(whole, Nil, geom.UniverseBox(t.cfg.Dim))
	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/build:decorate")
		t.decorate(t.root, r, n)
	})
}

// stitchSketch replaces the sketch's bucket leaves with the module-built
// subtrees, collapsing empty sides and recomputing sizes and boxes.
func stitchSketch(s *kd.Sketch, parts []*bnode) *bnode {
	if s.L == nil {
		return parts[s.Bucket]
	}
	l := stitchSketch(s.L, parts)
	r := stitchSketch(s.R, parts)
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return joinB(s.Axis, s.Split, l, r)
}

func countB(b *bnode) int {
	if b == nil {
		return 0
	}
	return 1 + countB(b.l) + countB(b.r)
}
