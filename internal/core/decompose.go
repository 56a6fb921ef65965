package core

import (
	"math/bits"
	"slices"

	"pimkd/internal/mathx"
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
	queue := append(t.place.queue[:0], top)
	for head := 0; head < len(queue); head++ {
		for _, c := range t.refreshComponent(queue[head], r, batchS) {
			if t.nd(c).needsRefresh {
				queue = append(queue, c)
			}
		}
	}
	t.place.queue = queue[:0]
}

// placeScratch is the scratch of the placement and caching step, owned by
// the Tree and reused across refreshes and batches. Each buffer is sized by
// the largest component (or, for queue, the most components) one refresh
// has needed, never by the arena.
type placeScratch struct {
	queue []NodeID // refreshFrom's FIFO of component roots
	comp  compWalk // the component refreshComponent is refreshing
	// flush is flushUnfinished's walk. It runs inside refreshComponent's
	// delayed-Group-1 branch, whose caller still returns comp.boundary.
	flush compWalk
	prev  placement
	// masks holds buildCachingDiff's module masks: ⌈P/64⌉ words per
	// member for its ancestors, then as many for its descendants.
	masks []uint64
}

// compWalk is one component walk: the members in BFS order (a parent
// before its children), each member's parent as an index into members (-1
// for the root), and the boundary children in deeper groups.
type compWalk struct {
	members  []NodeID
	parents  []int32
	boundary []NodeID
}

// placement is a component's placement before its refresh, aligned with
// its members: member i had master module[i], was charged for charged[i]
// copy slots, and had the copy-set row replicas(i), a copy of its row
// in the tree's slab.
type placement struct {
	module, charged []int32
	rows            []uint64
	words           int
}

func (p *placement) replicas(i int) []uint64 { return p.rows[i*p.words : (i+1)*p.words] }

// componentMembers walks the maximal same-group connected subtree rooted at
// root into w: its members in BFS order (so chunking groups nearby nodes)
// with their parents, and the boundary children in deeper groups.
func (t *Tree) componentMembers(root NodeID, w *compWalk) {
	g := t.nd(root).group
	w.members = append(w.members[:0], root)
	w.parents = append(w.parents[:0], -1)
	w.boundary = w.boundary[:0]
	// members doubles as the BFS queue: a member is visited in the order it
	// was appended.
	for i := 0; i < len(w.members); i++ {
		nd := t.nd(w.members[i])
		if nd.leaf {
			continue
		}
		for _, c := range [2]NodeID{nd.left, nd.right} {
			if t.nd(c).group == g {
				w.members = append(w.members, c)
				w.parents = append(w.parents, int32(i))
			} else {
				w.boundary = append(w.boundary, c)
			}
		}
	}
}

// refreshComponent recomputes placement and caching for the component rooted
// at root and returns the roots of the child components below it. The
// returned slice is scratch, valid until the next call.
func (t *Tree) refreshComponent(root NodeID, r *pim.Round, batchS int) []NodeID {
	g := t.nd(root).group
	s := &t.place
	t.componentMembers(root, &s.comp)
	members := s.comp.members

	// Snapshot the previous placement so transfers can be metered as the
	// delta: a refresh that merely extends an existing component (a leaf
	// split, a small graft) only ships the new copies, which is what the
	// paper's amortized update bound assumes.
	prev := &s.prev
	prev.module = slices.Grow(prev.module[:0], len(members))[:len(members)]
	prev.charged = slices.Grow(prev.charged[:0], len(members))[:len(members)]
	prev.words = t.copyWords
	prev.rows = prev.rows[:0]
	for i, id := range members {
		nd := t.nd(id)
		prev.module[i] = nd.module
		prev.charged[i] = nd.chargedCopies
		prev.rows = append(prev.rows, t.copyRow(id)...)
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
			wasGroup0 := prev.charged[i] == int32(t.mach.P())
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
			if r != nil && prev.module[i] != nd.module {
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
			if prev.module[i] < 0 {
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
				if r != nil && prev.module[i] != nd.module {
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
			buildCaching(t, &s.comp, prev, r)
		}
	}
	return s.comp.boundary
}

// buildCaching is the caching pass refreshComponent and flushUnfinished
// run. It is a variable only so that a test can run twin trees through the
// map-based pass it replaced and require identical placements and meters.
var buildCaching = (*Tree).buildCachingDiff

// buildCachingDiff constructs the dual-way caching of the cached component
// walked into w: every member is replicated onto the modules of its
// in-component ancestors (top-down caching) and of its in-component
// descendants (bottom-up caching). Transfers are metered as the delta
// against prev, the placement before the refresh (nil = fresh): only new
// copies are shipped and removed copies cost one invalidation word.
func (t *Tree) buildCachingDiff(w *compWalk, prev *placement, r *pim.Round) {
	members, parents := w.members, w.parents
	n := len(members)
	words := t.copyWords
	masks := slices.Grow(t.place.masks[:0], 2*n*words)[:2*n*words]
	t.place.masks = masks
	clear(masks)
	anc := func(i int) []uint64 { return masks[i*words : (i+1)*words] }
	desc := func(i int) []uint64 { return masks[(n+i)*words : (n+i+1)*words] }
	// Top-down: a member's ancestors are its parent's plus the parent; BFS
	// order puts every parent before its children.
	for i := 1; i < n; i++ {
		p := parents[i]
		a := anc(i)
		copy(a, anc(int(p)))
		setBit(a, t.nd(members[p]).module)
	}
	// Bottom-up: in reverse BFS order a member's descendants are complete
	// before they fold into its parent's.
	for i := n - 1; i > 0; i-- {
		d, pd := desc(i), desc(int(parents[i]))
		for k := range pd {
			pd[k] |= d[k]
		}
		setBit(pd, t.nd(members[i]).module)
	}
	// Each member's copy-set row is ancestors | descendants, minus its
	// master.
	var spaceCopies int64
	for i, id := range members {
		nd := t.nd(id)
		a, d, row := anc(i), desc(i), t.copyRow(id)
		for k := range row {
			row[k] = a[k] | d[k]
		}
		row[nd.module>>6] &^= 1 << (nd.module & 63)
		nd.chargedCopies = int32(1 + popcount(row))
		spaceCopies += int64(nd.chargedCopies)
	}
	t.chargeNodeSpace(spaceCopies)
	if r == nil {
		return
	}
	// Meter the placement delta sequentially in member order so the
	// transfer sequence stays deterministic.
	for i, id := range members {
		nd := t.nd(id)
		row := t.copyRow(id)
		var pm int32 = -1
		var pc []uint64
		if prev != nil {
			pm = prev.module[i]
			pc = prev.replicas(i)
		}
		if pm != nd.module {
			r.Transfer(int(nd.module), nodeWords(t.cfg.Dim))
		}
		// Ship the copies the member's previous master and replicas lacked.
		for k, w := range row {
			if pc != nil {
				w &^= pc[k]
			}
			if pm >= 0 && k == int(pm>>6) {
				w &^= 1 << (pm & 63)
			}
			for ; w != 0; w &= w - 1 {
				r.Transfer(k*64+bits.TrailingZeros64(w), nodeWords(t.cfg.Dim))
			}
		}
		// Invalidation words for copies that went away.
		for k, w := range pc {
			w &^= row[k]
			if k == int(nd.module>>6) {
				w &^= 1 << (nd.module & 63)
			}
			for ; w != 0; w &= w - 1 {
				r.Transfer(k*64+bits.TrailingZeros64(w), 1)
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
	clear(t.copyRow(id))
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
	w := &t.place.flush
	for _, root := range pending {
		nd := t.nd(root)
		if nd.dead || !nd.unfinished {
			continue
		}
		nd.unfinished = false
		t.unfinishedComps--
		t.componentMembers(root, w)
		// Masters were already placed; release the master-only accounting
		// and rebuild with full caching.
		t.unchargeNodeSpace(int64(len(w.members)))
		for _, id := range w.members {
			t.nd(id).chargedCopies = 0
		}
		buildCaching(t, w, nil, r)
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
	clear(t.boxRow(id)) // unplace cleared its copy-set row
	t.pendingFree = append(t.pendingFree, id)
}

// flushFree returns the ids parked by dismantle to the allocator.
func (t *Tree) flushFree() {
	t.freeL = append(t.freeL, t.pendingFree...)
	t.pendingFree = t.pendingFree[:0]
}
