package core

import (
	"sync/atomic"

	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// cpuResident marks a walker whose query state currently lives in the CPU
// cache rather than on a module.
const cpuResident int32 = -2

// walker carries a query's state through an irregular traversal — kNN/ANN,
// range and radius queries, aggregates, priority search and joins: the
// module the state currently lives on, and the query's cost counters. Every
// traversal meters its node touches through a walker, so the push-pull rule
// below is stated once.
type walker struct {
	t *Tree
	r *pim.Round
	// mod is the module holding the query state; home is the query's evenly
	// assigned module.
	mod, home int32

	hops, nodes, leaves int64
}

// walk runs body once per query i in [0, n), all in one round labelled
// label. Query i's walker starts on the master module of leaf start[i], or
// on its home module when start is nil. body gets the walker by value, so it
// stays on body's stack, and ends with w.done. The tree's visit counters
// are cleared first, so the push-pull rule in touch counts this batch's
// touches only. An empty tree or batch runs no round.
func (t *Tree) walk(label string, n int, start []NodeID, body func(i int, w walker)) {
	if t.root == Nil || n == 0 {
		return
	}
	if len(t.visits) < len(t.nodes) {
		t.visits = make([]atomic.Int32, cap(t.nodes))
	} else {
		clear(t.visits[:len(t.nodes)])
	}
	t.mach.RunRound(func(r *pim.Round) {
		r.Label(label)
		parallel.ForChunked(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := walker{t: t, r: r, home: t.startModule(i)}
				w.mod = w.home
				if start != nil {
					w.mod = t.nd(start[i]).module
				}
				body(i, w)
			}
		})
	})
}

// done adds the query's counters and its number of answer items to OpStats.
func (w *walker) done(answers int) {
	atomic.AddInt64(&w.t.OpStats.Hops, w.hops)
	atomic.AddInt64(&w.t.OpStats.NodesVisited, w.nodes)
	atomic.AddInt64(&w.t.OpStats.LeavesTouched, w.leaves)
	atomic.AddInt64(&w.t.OpStats.Reported, int64(answers))
}

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
	w.nodes++
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
		w.hops++
	}
	w.r.ModuleWork(int(w.mod), 1)
	return false
}

// scan touches leaf id, meters its bucket scan on the processor the visit
// ran on, and returns the bucket.
func (w *walker) scan(id NodeID) []Item {
	pts := w.t.nd(id).pts
	w.leaves++
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
