package core

import (
	"sort"
	"sync/atomic"

	"pimkd/internal/mathx"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// decorate assigns log-star groups, master modules, and dual-way caching to
// the freshly grafted subtree rooted at id, merging its top component with
// the parent's component when their groups coincide. Replica placement
// transfers are metered into round r; batchS drives the delayed Group-1
// construction threshold. decorate must be called after graft and before
// the subtree serves queries.
func (t *Tree) decorate(id NodeID, r *pim.Round, batchS int) {
	if id == Nil {
		return
	}
	parentGroup := int16(-1)
	if p := t.nd(id).parent; p != Nil {
		parentGroup = t.nd(p).group
	}
	t.assignGroups(id, parentGroup)

	// If the fresh root joins the parent's component, the whole merged
	// component must be refreshed; otherwise the fresh root begins one.
	top := id
	if p := t.nd(id).parent; p != Nil && t.nd(p).group == t.nd(id).group {
		if cr := t.nd(p).compRoot; cr != Nil {
			top = cr
		} else {
			top = p
		}
	}
	t.refreshFrom(top, r, batchS)
}

// assignGroups sets the group index of every node in the subtree from its
// approximate counter, clamped so groups never decrease downward, and flags
// the nodes for component refresh.
func (t *Tree) assignGroups(id NodeID, parentGroup int16) {
	nd := t.nd(id)
	g := t.groupOf(nd.count.Value())
	if g < parentGroup {
		g = parentGroup
	}
	nd.group = g
	nd.needsRefresh = true
	if !nd.leaf {
		t.assignGroups(nd.left, g)
		t.assignGroups(nd.right, g)
	}
}

// refreshFrom rebuilds component structure (compRoot, masters, caching)
// starting at the component containing top, descending only into components
// whose roots are flagged needsRefresh (fresh or regrouped nodes).
func (t *Tree) refreshFrom(top NodeID, r *pim.Round, batchS int) {
	queue := []NodeID{top}
	for len(queue) > 0 {
		root := queue[0]
		queue = queue[1:]
		boundary := t.refreshComponent(root, r, batchS)
		for _, c := range boundary {
			if t.nd(c).needsRefresh {
				queue = append(queue, c)
			}
		}
	}
}

// componentMembers gathers the maximal same-group connected subtree rooted
// at root (BFS order, so chunking groups nearby nodes) and the boundary
// children in deeper groups.
func (t *Tree) componentMembers(root NodeID) (members, boundary []NodeID) {
	g := t.nd(root).group
	queue := []NodeID{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		members = append(members, id)
		nd := t.nd(id)
		if nd.leaf {
			continue
		}
		for _, c := range []NodeID{nd.left, nd.right} {
			if t.nd(c).group == g {
				queue = append(queue, c)
			} else {
				boundary = append(boundary, c)
			}
		}
	}
	return members, boundary
}

// refreshComponent recomputes placement and caching for the component rooted
// at root and returns the roots of the child components below it.
func (t *Tree) refreshComponent(root NodeID, r *pim.Round, batchS int) []NodeID {
	g := t.nd(root).group
	members, boundary := t.componentMembers(root)

	// Snapshot the previous placement so transfers can be metered as the
	// delta: a refresh that merely extends an existing component (a leaf
	// split, a small graft) only ships the new copies, which is what the
	// paper's amortized update bound assumes.
	prevModule := make([]int32, len(members))
	prevCopies := make([][]int32, len(members))
	prevCharged := make([]int32, len(members))
	for i, id := range members {
		nd := t.nd(id)
		prevModule[i] = nd.module
		prevCharged[i] = nd.chargedCopies
		if len(nd.copies) > 0 {
			prevCopies[i] = append([]int32(nil), nd.copies...)
		}
		t.unplace(id)
	}

	// Assign master modules, chunk by chunk: runs of ChunkSize consecutive
	// BFS members share the module of their chunk leader (ChunkSize == 1 is
	// the plain binary design with one module per node).
	c := t.cfg.ChunkSize
	for i, id := range members {
		leader := members[i-(i%c)]
		t.nd(id).module = t.hashModule(leader)
	}

	switch {
	case g == 0:
		// Group 0 is replicated on every module (copies implicit). Only
		// newly promoted/fresh nodes are broadcast.
		for i, id := range members {
			nd := t.nd(id)
			nd.compRoot = root
			nd.needsRefresh = false
			nd.chargedCopies = int32(t.mach.P())
			t.chargeNodeSpace(int64(t.mach.P()))
			wasGroup0 := prevCharged[i] == int32(t.mach.P())
			if r != nil && !wasGroup0 {
				r.ChargeAll(nodeWords(t.cfg.Dim), 0)
			}
		}
	case !t.cachedGroup(g):
		// Space-optimized variants leave deep groups distributed: master
		// nodes only, each its own single-node component.
		for i, id := range members {
			nd := t.nd(id)
			nd.compRoot = id
			nd.needsRefresh = false
			nd.chargedCopies = 1
			t.chargeNodeSpace(1)
			if r != nil && prevModule[i] != nd.module {
				r.Transfer(int(nd.module), nodeWords(t.cfg.Dim))
			}
		}
	default:
		for _, id := range members {
			nd := t.nd(id)
			nd.compRoot = root
			nd.needsRefresh = false
		}
		fresh := 0
		for i := range members {
			if prevModule[i] < 0 {
				fresh++
			}
		}
		if g == 1 && !t.cfg.NoDelayedGroup1 && len(members) > t.delayedThreshold(batchS) &&
			2*fresh > len(members) {
			// Delay only mostly-fresh components: an already-cached
			// component is refreshed incrementally (diff-metered), which is
			// cheaper than tearing its caching down and rebuilding it at
			// the next flush.
			// Delayed construction (§3.4): place masters now, caches later.
			for i, id := range members {
				nd := t.nd(id)
				nd.chargedCopies = 1
				t.chargeNodeSpace(1)
				if r != nil && prevModule[i] != nd.module {
					r.Transfer(int(nd.module), nodeWords(t.cfg.Dim))
				}
			}
			rootNd := t.nd(root)
			if !rootNd.unfinished {
				rootNd.unfinished = true
				t.unfinishedComps++
				t.unfinishedList = append(t.unfinishedList, root)
			}
			if t.unfinishedComps > t.flushLimit() {
				t.flushUnfinished(r, batchS)
			}
		} else {
			t.buildCachingDiff(root, members, prevModule, prevCopies, r)
		}
	}
	return boundary
}

// buildCaching constructs the dual-way caching of one cached component from
// scratch (no previous placement credit).
func (t *Tree) buildCaching(root NodeID, members []NodeID, r *pim.Round) {
	t.buildCachingDiff(root, members, nil, nil, r)
}

// buildCachingDiff constructs the dual-way caching of one cached component:
// every member is replicated onto the modules of its in-component ancestors
// (top-down caching) and of its in-component descendants (bottom-up
// caching). Transfers are metered as the delta against the previous
// placement (prevModule/prevCopies aligned with members; nil = fresh): only
// new copies are shipped and removed copies cost one invalidation word.
func (t *Tree) buildCachingDiff(root NodeID, members []NodeID, prevModule []int32, prevCopies [][]int32, r *pim.Round) {
	g := t.nd(root).group
	// DFS with an explicit ancestor stack of (id, module).
	type frame struct {
		id    NodeID
		phase int
	}
	var ancestors []NodeID
	copySets := make(map[NodeID]map[int32]bool, len(members))
	for _, id := range members {
		copySets[id] = map[int32]bool{}
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := t.nd(f.id)
		if f.phase == 0 {
			f.phase = 1
			// Dual-way exchange with every ancestor in the component.
			for _, a := range ancestors {
				copySets[f.id][t.nd(a).module] = true // top-down: ancestor's module caches me
				copySets[a][nd.module] = true         // bottom-up: my module caches the ancestor
			}
			ancestors = append(ancestors, f.id)
			if !nd.leaf {
				if t.nd(nd.right).group == g {
					stack = append(stack, frame{nd.right, 0})
				}
				if t.nd(nd.left).group == g {
					stack = append(stack, frame{nd.left, 0})
				}
				continue
			}
		}
		ancestors = ancestors[:len(ancestors)-1]
		stack = stack[:len(stack)-1]
	}
	// Materialize each member's copy set in parallel. Copies are sorted
	// ascending — ranging over the map here used to bake Go's randomized
	// iteration order into nd.copies, quietly breaking run-to-run
	// reproducibility of every later loop over the replica list. Space
	// charges accumulate atomically and post once.
	var spaceCopies atomic.Int64
	parallel.ForChunked(len(members), func(lo, hi int) {
		var charged int64
		for _, id := range members[lo:hi] {
			nd := t.nd(id)
			set := copySets[id]
			delete(set, nd.module)
			nd.copies = nd.copies[:0]
			for m := range set {
				nd.copies = append(nd.copies, m)
			}
			sort.Slice(nd.copies, func(a, b int) bool { return nd.copies[a] < nd.copies[b] })
			nd.chargedCopies = int32(1 + len(nd.copies))
			charged += int64(1 + len(nd.copies))
		}
		spaceCopies.Add(charged)
	})
	t.chargeNodeSpace(spaceCopies.Load())
	if r == nil {
		return
	}
	// Meter the placement delta sequentially in member order so the
	// transfer sequence (which the fault injector observes per call) stays
	// deterministic.
	for i, id := range members {
		nd := t.nd(id)
		var pm int32 = -1
		var pc []int32
		if prevModule != nil {
			pm = prevModule[i]
			pc = prevCopies[i]
		}
		if pm != nd.module {
			r.Transfer(int(nd.module), nodeWords(t.cfg.Dim))
		}
		had := func(m int32) bool {
			if m == pm {
				return true
			}
			for _, x := range pc {
				if x == m {
					return true
				}
			}
			return false
		}
		for _, m := range nd.copies {
			if !had(m) {
				r.Transfer(int(m), nodeWords(t.cfg.Dim))
			}
		}
		// Invalidation words for copies that went away.
		for _, m := range pc {
			still := m == nd.module
			for _, x := range nd.copies {
				if x == m {
					still = true
					break
				}
			}
			if !still {
				r.Transfer(int(m), 1)
			}
		}
	}
}

// unplace releases a node's placement accounting (master + replicas or
// Group-0 full replication). Fresh nodes (module < 0) are untouched.
func (t *Tree) unplace(id NodeID) {
	nd := t.nd(id)
	if nd.module < 0 {
		return
	}
	t.unchargeNodeSpace(int64(nd.chargedCopies))
	nd.chargedCopies = 0
	nd.copies = nd.copies[:0]
	nd.module = -1
	if nd.unfinished {
		nd.unfinished = false
		t.unfinishedComps--
		t.removeUnfinished(id)
	}
}

// delayedThreshold is the §3.4 component-size bound S/(P log P) above which
// Group-1 caching is deferred.
func (t *Tree) delayedThreshold(batchS int) int {
	p := t.mach.P()
	th := batchS / (p * mathx.MaxInt(1, mathx.CeilLog2(p)))
	return mathx.MaxInt(1, th)
}

// flushLimit is the P log P bound on outstanding unfinished components that
// triggers the extra construction phase.
func (t *Tree) flushLimit() int {
	p := t.mach.P()
	return p * mathx.MaxInt(1, mathx.CeilLog2(p))
}

// FlushDelayed forces the §3.4 extra construction phase: every component
// whose caching was deferred by delayed Group-1 construction gets its
// dual-way caches built now. It happens automatically once the backlog
// exceeds P log P components; calling it manually is useful before a
// latency-critical read burst.
func (t *Tree) FlushDelayed() {
	if t.unfinishedComps == 0 {
		return
	}
	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/reconstruct:flush-delayed")
		t.flushUnfinished(r, t.size)
	})
}

// flushUnfinished builds the pending caches of all unfinished components in
// one extra phase (the batched flush of §3.4).
func (t *Tree) flushUnfinished(r *pim.Round, batchS int) {
	pending := t.unfinishedList
	t.unfinishedList = nil
	for _, root := range pending {
		nd := t.nd(root)
		if nd.dead || !nd.unfinished {
			continue
		}
		nd.unfinished = false
		t.unfinishedComps--
		members, _ := t.componentMembers(root)
		// Masters were already placed; release the master-only accounting
		// and rebuild with full caching.
		t.unchargeNodeSpace(int64(len(members)))
		for _, id := range members {
			t.nd(id).chargedCopies = 0
		}
		t.buildCaching(root, members, r)
	}
	t.OpStats.DelayedFlushes++
	_ = batchS
}

func (t *Tree) removeUnfinished(id NodeID) {
	for i, v := range t.unfinishedList {
		if v == id {
			t.unfinishedList[i] = t.unfinishedList[len(t.unfinishedList)-1]
			t.unfinishedList = t.unfinishedList[:len(t.unfinishedList)-1]
			return
		}
	}
}

// dismantle releases a subtree's placement, point space, and arena slots
// (used before a partial reconstruction replaces it). Freed ids are parked
// in pendingFree and only become reusable after flushFree, so a NodeID
// captured earlier in the same batch can never silently alias a fresh node.
func (t *Tree) dismantle(id NodeID) {
	if id == Nil {
		return
	}
	nd := t.nd(id)
	t.unplace(id)
	if nd.leaf {
		t.unchargePointSpace(int64(len(nd.pts)))
	} else {
		t.dismantle(nd.left)
		t.dismantle(nd.right)
	}
	nd.dead = true
	nd.pts = nil
	nd.copies = nil
	t.pendingFree = append(t.pendingFree, id)
}

// flushFree returns the ids parked by dismantle to the allocator.
func (t *Tree) flushFree() {
	t.freeL = append(t.freeL, t.pendingFree...)
	t.pendingFree = t.pendingFree[:0]
}
