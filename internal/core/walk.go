package core

import (
	"sync/atomic"

	"pimkd/internal/heapx"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// cpuResident marks a walker whose query state currently lives in the CPU
// cache rather than on a module.
const cpuResident int32 = -2

// walker carries a query's state through an irregular traversal — kNN/ANN,
// range and radius queries, aggregates, priority search and joins: the
// module the state currently lives on, and the tally of its chunk, which
// meters the query's costs. Every traversal meters its node touches through
// a walker, so the push-pull rule below is stated once.
type walker struct {
	t *Tree
	r *walkTally
	// mod is the module holding the query state; home is the query's evenly
	// assigned module.
	mod, home int32
}

// walkTally is one chunk's meters in a walk: the round meters its walkers
// charge, their OpStats counts (off-chip hops, node touches, leaf buckets
// scanned, answer items), and the chunk's kNN scratch. One goroutine owns
// it for the chunk, so its walkers add to it without atomics.
type walkTally struct {
	pim.Tally
	hops, nodes, leaves, reported int64
	// hi ends the chunk's query range.
	hi int
	// best is the chunk's kNN candidate set, reset for every query; slab
	// holds the chunk's kNN answers (see answers).
	best *heapx.KBest
	slab []heapx.Candidate
}

// walk runs body once per query i in [0, n), all in one round labelled
// label. The queries run in parallel chunks; query i's walker starts on the
// master module of leaf start[i], or on its home module when start is nil.
// body gets the walker by value, so it stays on body's stack, and ends with
// w.done. Each chunk's walkers meter into the chunk's tally, which is
// folded into the round and OpStats once, when the chunk ends; the tallies
// are pooled on the tree, so a walk allocates none. The tree's visit
// counters are cleared first, so the push-pull rule in touch counts this
// batch's touches only. An empty tree or batch runs no round.
func (t *Tree) walk(label string, n int, start []NodeID, body func(i int, w walker)) {
	if t.root == Nil || n == 0 {
		return
	}
	if len(t.visits) < len(t.nodes) {
		t.visits = make([]atomic.Int32, cap(t.nodes))
	} else {
		clear(t.visits[:len(t.nodes)])
	}
	for chunks := parallel.Chunks(n); len(t.tallies) < chunks; {
		t.tallies = append(t.tallies, &walkTally{Tally: *pim.NewTally(t.mach.P())})
	}
	t.mach.RunRound(func(r *pim.Round) {
		r.Label(label)
		parallel.ForChunks(n, func(c, lo, hi int) {
			tl := t.tallies[c]
			tl.reset(hi)
			for i := lo; i < hi; i++ {
				w := walker{t: t, r: tl, home: t.startModule(i)}
				w.mod = w.home
				if start != nil {
					w.mod = t.nd(start[i]).module
				}
				body(i, w)
			}
			r.Fold(&tl.Tally)
			atomic.AddInt64(&t.OpStats.Hops, tl.hops)
			atomic.AddInt64(&t.OpStats.NodesVisited, tl.nodes)
			atomic.AddInt64(&t.OpStats.LeavesTouched, tl.leaves)
			atomic.AddInt64(&t.OpStats.Reported, tl.reported)
			// The answers in the slab are the caller's now.
			tl.slab = nil
		})
	})
}

// reset empties the tally for a chunk ending at hi.
func (tl *walkTally) reset(hi int) {
	tl.Tally.Reset()
	tl.hops, tl.nodes, tl.leaves, tl.reported = 0, 0, 0, 0
	tl.hi = hi
}

// done adds the query's number of answer items to its chunk's tally.
func (w *walker) done(answers int) { w.r.reported += int64(answers) }

// startModule picks the module a query's traversal starts on; Group 0 is
// replicated everywhere, so queries spread evenly.
func (t *Tree) startModule(i int) int32 {
	return int32(i % t.mach.P())
}

// touch visits node id and reports whether the visit ran on the CPU. It
// applies the push-pull rule beyond LeafSearch (Lemma 3.8): once more than
// τ of the batch's queries touch a node, the node (with its bucket, if a
// leaf) is pulled to the CPU once and every further visit runs there, so
// thousands of queries backtracking through the same few nodes cannot turn
// one module into a straggler. Otherwise the visit is local when the
// walker's module holds a copy (master, top-down cache or bottom-up chain)
// and hops the query state to the node's master when it does not. A walker
// coming back from the CPU into the fully replicated Group 0 resumes on its
// home module: resuming on a fixed per-node module would re-concentrate
// adversarial batches.
func (w *walker) touch(id NodeID) bool {
	t := w.t
	nd := t.nd(id)
	w.r.nodes++
	if nd.group != 0 {
		tau := t.tau[nd.group]
		if cnt := int(t.visits[id].Add(1)); cnt > tau {
			if cnt == tau+1 {
				words := nodeWords(t.cfg.Dim)
				if nd.leaf {
					words += int64(len(nd.pts)) * pointWords(t.cfg.Dim)
				}
				w.r.Transfer(int(nd.module), words)
			}
			w.r.CPUWork(1)
			w.mod = cpuResident
			return true
		}
	}
	if w.mod == cpuResident || !t.isLocal(id, w.mod) {
		w.mod = nd.module
		if nd.group == 0 {
			w.mod = w.home
		}
		w.r.Transfer(int(w.mod), queryWords(t.cfg.Dim))
		w.r.hops++
	}
	w.r.ModuleWork(int(w.mod), 1)
	return false
}

// scan touches leaf id, meters its bucket scan on the processor the visit
// ran on, and returns the bucket.
func (w *walker) scan(id NodeID) []Item {
	pts := w.t.nd(id).pts
	w.r.leaves++
	if w.touch(id) {
		w.r.CPUWork(int64(len(pts)))
	} else {
		w.r.ModuleWork(int(w.mod), int64(len(pts)))
	}
	return pts
}

// backtrack climbs from leaf to the root, touching each ancestor and handing
// the other child at every turn to sibling. Starting at the query's own leaf
// keeps most of a nearby search inside the leaf's group, where the dual-way
// caching makes it local.
func (w *walker) backtrack(leaf NodeID, sibling func(NodeID)) {
	for cur := leaf; ; {
		p := w.t.nd(cur).parent
		if p == Nil {
			return
		}
		w.touch(p)
		pn := w.t.nd(p)
		sib := pn.left
		if sib == cur {
			sib = pn.right
		}
		sibling(sib)
		cur = p
	}
}
