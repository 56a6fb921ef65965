package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"pimkd/internal/counter"
	"pimkd/internal/geom"
	"pimkd/internal/mathx"
	"pimkd/internal/pim"
)

// NodeID indexes the tree's node arena. Nil marks "no node".
type NodeID int32

// Nil is the null node id.
const Nil NodeID = -1

// node is one kd-tree node. Master placement and replication are logical:
// the node lives once in the arena, `module` names its master PIM module,
// and its row of the tree's copy-set slab names the other modules holding
// replicas under the dual-way caching scheme. Every access path in the
// package checks locality against these and meters a hop when the
// executing module lacks a copy. A node's cell box lives in the tree's box
// slab (Tree.box), so the struct itself holds no coordinates; its fields
// are ordered widest first so it packs into 96 bytes (TestNodeLayout).
type node struct {
	split float64
	// count is the approximate subtree-size counter (exact immediately
	// after (re)construction). Balance and grouping decisions read it.
	count counter.Approx
	// maxPri/maxPriID carry the priority-search augmentation: the maximum
	// (Priority, ID) pair stored in the subtree. Maintained at
	// (re)construction; the augmentation is for static use (§6.1).
	maxPri float64
	pts    []Item // leaf bucket (leaf only)

	axis   int32
	parent NodeID
	left   NodeID
	right  NodeID
	// exact is the true subtree size, maintained as an unmetered shadow for
	// invariant checks and experiments that compare against ground truth.
	exact    int32
	maxPriID int32
	module   int32 // master module
	compRoot NodeID
	// chargedCopies records how many copy-slots of space this node is
	// currently charged for, so unplace stays correct across group changes.
	chargedCopies int32

	group int16 // log-star group index: 0 .. L
	leaf  bool
	// unfinished marks a component root whose intra-group caching is
	// pending under delayed Group-1 construction.
	unfinished bool
	// needsRefresh flags freshly grafted or regrouped nodes whose component
	// structure must be (re)computed by refreshFrom.
	needsRefresh bool
	// stuck marks a node whose imbalance survived its own reconstruction:
	// the point multiset admits no α-balanced cut (duplicate-heavy data),
	// so further rebuilds are skipped until churn replaces the node.
	stuck bool
	dead  bool
}

// Tree is a PIM-kd-tree bound to a pim.Machine. A Tree runs one batch
// operation at a time: its visit counters, its per-batch scratch and its
// OpStats tallies belong to the running batch, whose own work may be
// parallel. Callers that share a Tree serialise its batches, as the serving
// layer's single executor does.
type Tree struct {
	cfg  Config
	mach *pim.Machine

	nodes       []node
	freeL       []NodeID
	pendingFree []NodeID
	root        NodeID
	size        int

	// boxes is the box slab: row id holds node id's cell, its Dim lower
	// corner coordinates then its Dim upper ones. copySets is the copy-set
	// slab: row id is a bitset of copyWords words over the modules holding
	// a replica of node id (master excluded; Group 0's full replication is
	// implicit and its row empty). Both hold a row for every slot of the
	// arena's capacity, and a freed slot's rows are zero.
	boxes     []float64
	copySets  []uint64
	copyWords int
	// cell holds a rebuilt subtree's cell while its old root is dismantled.
	cell []float64

	// H[j] is the group threshold: H[0] = P, H[j] = log^(j) P. A node with
	// subtree size in [H[j], H[j-1]) is in group j; sizes >= P are group 0.
	H []float64
	// L is the deepest group index (log* P).
	L int
	// G is the number of cached groups (the trade-off knob).
	G int
	// tau[g] is the push-pull threshold for group g (index 1..L).
	tau []int

	rng  *rand.Rand
	salt uint64
	// epoch advances once per batch operation, salting the per-(node,
	// query) counter coins so repeated batches draw fresh randomness.
	epoch uint64

	// spaceWords meters the model space: master nodes, replicas, Group-0
	// full replication, and points.
	spaceWords int64

	// unfinishedComps counts Group-1 components with delayed caching;
	// unfinishedList tracks their roots for the flush phase.
	unfinishedComps int
	unfinishedList  []NodeID

	// visits counts, per arena slot, the touches of the current traversal
	// batch's walkers (the push-pull rule in walker.touch). It is sized to
	// the arena's capacity and cleared per batch, so a batch allocates
	// nothing in proportion to the tree.
	visits []atomic.Int32
	// tallies are the walks' per-chunk meters (walker.r), one per chunk of
	// the widest walk so far, reused by every walk.
	tallies []*walkTally
	// scratch holds LeafSearch's per-module wave buffers, reused across
	// waves and batches.
	scratch searchScratch
	// place is the placement and caching step's scratch, reused across
	// refreshes and batches.
	place placeScratch

	// OpStats tallies structure-level event counters useful to experiments.
	OpStats OpStats
}

// OpStats counts structural events in a Tree's lifetime.
type OpStats struct {
	// CounterFires counts approximate-counter updates that actually wrote
	// (and hence fanned out to replicas).
	CounterFires int64
	// CounterAttempts counts increment/decrement attempts.
	CounterAttempts int64
	// Rebuilds counts partial reconstructions.
	Rebuilds int64
	// RebuiltPoints counts points involved in reconstructions.
	RebuiltPoints int64
	// Pulls and Pushes count push-pull decisions during batched searches.
	Pulls, Pushes int64
	// DelayedFlushes counts delayed-construction flush phases.
	DelayedFlushes int64
	// Hops, NodesVisited, LeavesTouched and Reported total the walkers of
	// the irregular traversals (kNN/ANN, range, radius, aggregate, priority
	// search, joins): off-chip hops of query state, node touches, leaf
	// buckets scanned, and answer items produced. A walk adds to them
	// atomically, once per chunk of queries; read them between batches.
	Hops, NodesVisited, LeavesTouched, Reported int64
}

// New creates an empty PIM-kd-tree on machine mach. Use Build to load a
// point set in bulk.
func New(cfg Config, mach *pim.Machine) *Tree {
	cfg = cfg.withDefaults()
	p := mach.P()
	// The chunked variant (§5) groups the tree with base-C iterated logs:
	// larger fanout C means fewer, taller groups and thus fewer group
	// crossings (communication) per search.
	base := 2.0
	if cfg.ChunkSize > 1 {
		base = float64(cfg.ChunkSize)
	}
	l := mathx.LogStarB(float64(p), base)
	g := cfg.Groups
	if g <= 0 || g > l {
		g = l
	}
	t := &Tree{
		cfg:  cfg,
		mach: mach,
		root: Nil,
		L:    l,
		G:    g,
		rng:  rand.New(rand.NewSource(cfg.Seed ^ 0x7e46a1)),
		salt: pim.Mix64(uint64(cfg.Seed) + 0x9cc5),

		copyWords: (p + 63) / 64,
	}
	t.H = make([]float64, l+1)
	t.H[0] = float64(p)
	for j := 1; j <= l; j++ {
		t.H[j] = mathx.IterLogB(j, float64(p), base)
	}
	t.tau = make([]int, l+1)
	for gID := 1; gID <= l; gID++ {
		if cfg.PushPullFactor < 0 {
			t.tau[gID] = 1 // pull-only ablation
			continue
		}
		// τ = factor · H(group): H is the intra-group component height,
		// which is the binary log of the group's upper size threshold
		// (Lemma 3.2), regardless of the chunking base.
		h := mathx.CeilLog2(int(t.H[gID-1])+1) + 2
		t.tau[gID] = cfg.PushPullFactor * h
	}
	return t
}

// Machine returns the underlying PIM machine.
func (t *Tree) Machine() *pim.Machine { return t.mach }

// ConfigSnapshot returns the tree's effective configuration (defaults
// applied). Reconstructing a tree with this config, the same machine shape,
// and the same point set yields an equivalent index; the persistence layer
// stores it in snapshot headers.
func (t *Tree) ConfigSnapshot() Config { return t.cfg }

// Size returns the number of stored points.
func (t *Tree) Size() int { return t.size }

// Dim returns the point dimension.
func (t *Tree) Dim() int { return t.cfg.Dim }

// Root returns the root node id (Nil when empty).
func (t *Tree) Root() NodeID { return t.root }

// LogStarP returns log* P for the bound machine, the number of groups
// below Group 0.
func (t *Tree) LogStarP() int { return t.L }

// CachedGroups returns G, the number of groups with intra-group caching.
func (t *Tree) CachedGroups() int { return t.G }

// SpaceWords returns the accounted model space (masters + replicas +
// Group-0 replication + points) in words.
func (t *Tree) SpaceWords() int64 { return t.spaceWords }

// nd returns the node for id. The id must be live.
func (t *Tree) nd(id NodeID) *node { return &t.nodes[id] }

// boxRow returns node id's row of the box slab: its cell's Dim lower
// corner coordinates, then its Dim upper ones.
func (t *Tree) boxRow(id NodeID) []float64 {
	w := 2 * t.cfg.Dim
	o := int(id) * w
	return t.boxes[o : o+w : o+w]
}

// box returns node id's cell as a view into the box slab. The view
// allocates nothing, and writes through it change the cell. It is valid
// until the arena next grows.
func (t *Tree) box(id NodeID) geom.Box {
	row, d := t.boxRow(id), t.cfg.Dim
	return geom.Box{Lo: row[:d:d], Hi: row[d:]}
}

// copyRow returns node id's row of the copy-set slab; bit m set means
// module m holds a replica, so ascending module order is bit order.
func (t *Tree) copyRow(id NodeID) []uint64 {
	o := int(id) * t.copyWords
	return t.copySets[o : o+t.copyWords : o+t.copyWords]
}

// setBit adds module mod to the bitset mask.
func setBit(mask []uint64, mod int32) { mask[mod>>6] |= 1 << (mod & 63) }

// hasBit reports whether module mod is in the bitset mask.
func hasBit(mask []uint64, mod int32) bool { return mask[mod>>6]&(1<<(mod&63)) != 0 }

// popcount returns the number of modules in the bitset mask.
func popcount(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendModules appends the modules of the bitset mask to dst, ascending.
func appendModules(dst []int32, mask []uint64) []int32 {
	for k, w := range mask {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(k*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// alloc creates a node and returns its id, reusing freed slots.
func (t *Tree) alloc() NodeID {
	if n := len(t.freeL); n > 0 {
		id := t.freeL[n-1]
		t.freeL = t.freeL[:n-1]
		t.nodes[id] = node{parent: Nil, left: Nil, right: Nil, compRoot: Nil, module: -1}
		return id
	}
	t.nodes = append(t.nodes, node{parent: Nil, left: Nil, right: Nil, compRoot: Nil, module: -1})
	t.growSlabs()
	return NodeID(len(t.nodes) - 1)
}

// growSlabs extends the box and copy-set slabs to a row per slot of the
// arena's capacity, so they grow exactly when the arena does.
func (t *Tree) growSlabs() {
	rows := cap(t.nodes)
	if need := rows * 2 * t.cfg.Dim; len(t.boxes) < need {
		boxes := make([]float64, need)
		copy(boxes, t.boxes)
		t.boxes = boxes
	}
	if need := rows * t.copyWords; len(t.copySets) < need {
		sets := make([]uint64, need)
		copy(sets, t.copySets)
		t.copySets = sets
	}
}

// groupOf maps a subtree size to its log-star group index, clamped to the
// deepest group L.
func (t *Tree) groupOf(size float64) int16 {
	if size >= t.H[0] {
		return 0
	}
	for j := 1; j < t.L; j++ {
		if size >= t.H[j] {
			return int16(j)
		}
	}
	return int16(t.L)
}

// cachedGroup reports whether group g receives intra-group caching under
// the configured G.
func (t *Tree) cachedGroup(g int16) bool { return g >= 1 && int(g) <= t.G }

// isLocal reports whether node id is readable on module mod without
// off-chip communication: Group 0 is replicated everywhere; otherwise the
// module must be the master or hold a replica.
func (t *Tree) isLocal(id NodeID, mod int32) bool {
	nd := t.nd(id)
	if nd.group == 0 {
		return true
	}
	return nd.module == mod || hasBit(t.copyRow(id), mod)
}

// hashModule places a master node: a salted hash of the node id, the
// balls-into-bins randomization that defeats adversarial skew.
func (t *Tree) hashModule(id NodeID) int32 {
	return int32(t.mach.Hash(t.salt ^ uint64(uint32(id))))
}

// chargeNodeSpace accounts w node-copy words of space.
func (t *Tree) chargeNodeSpace(copies int64) {
	t.spaceWords += copies * nodeWords(t.cfg.Dim)
}

func (t *Tree) unchargeNodeSpace(copies int64) {
	t.spaceWords -= copies * nodeWords(t.cfg.Dim)
}

func (t *Tree) chargePointSpace(n int64) {
	t.spaceWords += n * pointWords(t.cfg.Dim)
}

func (t *Tree) unchargePointSpace(n int64) {
	t.spaceWords -= n * pointWords(t.cfg.Dim)
}

// Height returns the tree height in nodes (0 when empty).
func (t *Tree) Height() int {
	var rec func(id NodeID) int
	rec = func(id NodeID) int {
		if id == Nil {
			return 0
		}
		nd := t.nd(id)
		if nd.leaf {
			return 1
		}
		l, r := rec(nd.left), rec(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(t.root)
}

// Items returns all stored items (tree order); O(n).
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	var rec func(id NodeID)
	rec = func(id NodeID) {
		if id == Nil {
			return
		}
		nd := t.nd(id)
		if nd.leaf {
			out = append(out, nd.pts...)
			return
		}
		rec(nd.left)
		rec(nd.right)
	}
	rec(t.root)
	return out
}

// CheckInvariants validates the structural invariants of the tree: exact
// shadow sizes, bounding boxes, group monotonicity along root-to-leaf
// paths, component-root consistency, replica placement symmetry (dual-way
// caching), and parent/child pointer agreement. It returns the first
// violation found.
func (t *Tree) CheckInvariants() error {
	if t.root == Nil {
		if t.size != 0 {
			return fmt.Errorf("empty root but size %d", t.size)
		}
		return nil
	}
	var rec func(id, parent NodeID) (int32, error)
	rec = func(id, parent NodeID) (int32, error) {
		nd := t.nd(id)
		if nd.dead {
			return 0, fmt.Errorf("node %d is dead but reachable", id)
		}
		if nd.parent != parent {
			return 0, fmt.Errorf("node %d parent pointer %d != actual %d", id, nd.parent, parent)
		}
		if parent != Nil {
			pg := t.nd(parent).group
			if nd.group < pg {
				return 0, fmt.Errorf("node %d group %d above parent group %d", id, nd.group, pg)
			}
		}
		if nd.group > 0 && nd.module < 0 {
			return 0, fmt.Errorf("node %d has no master module", id)
		}
		if err := t.checkCopyRow(id); err != nil {
			return 0, err
		}
		if nd.leaf {
			if int32(len(nd.pts)) != nd.exact {
				return 0, fmt.Errorf("leaf %d exact %d != len(pts) %d", id, nd.exact, len(nd.pts))
			}
			for _, it := range nd.pts {
				if !t.box(id).Contains(it.P) {
					return 0, fmt.Errorf("leaf %d box misses item %d", id, it.ID)
				}
			}
			return nd.exact, nil
		}
		if nd.left == Nil || nd.right == Nil {
			return 0, fmt.Errorf("internal node %d has a nil child", id)
		}
		ls, err := rec(nd.left, id)
		if err != nil {
			return 0, err
		}
		rs, err := rec(nd.right, id)
		if err != nil {
			return 0, err
		}
		if ls+rs != nd.exact {
			return 0, fmt.Errorf("node %d exact %d != %d+%d", id, nd.exact, ls, rs)
		}
		return nd.exact, nil
	}
	total, err := rec(t.root, Nil)
	if err != nil {
		return err
	}
	if int(total) != t.size {
		return fmt.Errorf("tree size %d != stored points %d", t.size, total)
	}
	if err := t.checkSlabs(); err != nil {
		return err
	}
	return t.checkCaching()
}

// checkCopyRow validates live node id's copy-set row against its
// placement: Group 0's row is empty (its replication is implicit), any
// other row excludes the master and, with the master, accounts for every
// charged copy slot.
func (t *Tree) checkCopyRow(id NodeID) error {
	nd, row := t.nd(id), t.copyRow(id)
	if nd.group == 0 {
		if n := popcount(row); n != 0 {
			return fmt.Errorf("group-0 node %d lists %d explicit replicas", id, n)
		}
		return nil
	}
	if hasBit(row, nd.module) {
		return fmt.Errorf("node %d lists its master module %d as a replica", id, nd.module)
	}
	if n := popcount(row); int32(1+n) != nd.chargedCopies {
		return fmt.Errorf("node %d has %d replicas but is charged for %d copies", id, n, nd.chargedCopies)
	}
	return nil
}

// checkSlabs validates that the box and copy-set slabs hold a row for
// every slot of the arena's capacity and that every slot not holding a
// live node has zero rows.
func (t *Tree) checkSlabs() error {
	rows := cap(t.nodes)
	if len(t.boxes) != rows*2*t.cfg.Dim || len(t.copySets) != rows*t.copyWords {
		return fmt.Errorf("slabs hold %d box and %d copy-set words for %d slots", len(t.boxes), len(t.copySets), rows)
	}
	for id := NodeID(0); int(id) < rows; id++ {
		if int(id) < len(t.nodes) && !t.nd(id).dead {
			continue
		}
		for _, v := range t.boxRow(id) {
			if v != 0 {
				return fmt.Errorf("free slot %d keeps a box row", id)
			}
		}
		if popcount(t.copyRow(id)) != 0 {
			return fmt.Errorf("free slot %d keeps a copy-set row", id)
		}
	}
	return nil
}

// checkCaching validates the dual-way caching layout: within each cached
// component, every node's replica set equals the master modules of its
// in-component ancestors and descendants.
func (t *Tree) checkCaching() error {
	var rec func(id NodeID) error
	rec = func(id NodeID) error {
		nd := t.nd(id)
		if t.cachedGroup(nd.group) && !t.componentUnfinished(id) {
			want := map[int32]bool{}
			// In-component ancestors.
			for a := nd.parent; a != Nil && t.nd(a).group == nd.group; a = t.nd(a).parent {
				want[t.nd(a).module] = true
			}
			// In-component descendants.
			var desc func(c NodeID)
			desc = func(c NodeID) {
				cn := t.nd(c)
				if cn.group != nd.group {
					return
				}
				if c != id {
					want[cn.module] = true
				}
				if !cn.leaf {
					desc(cn.left)
					desc(cn.right)
				}
			}
			desc(id)
			delete(want, nd.module)
			have := map[int32]bool{}
			for _, c := range appendModules(nil, t.copyRow(id)) {
				have[c] = true
			}
			for m := range want {
				if !have[m] {
					return fmt.Errorf("node %d (group %d) missing replica on module %d", id, nd.group, m)
				}
			}
			for m := range have {
				if !want[m] {
					return fmt.Errorf("node %d (group %d) has stray replica on module %d", id, nd.group, m)
				}
			}
		}
		if !nd.leaf {
			if err := rec(nd.left); err != nil {
				return err
			}
			return rec(nd.right)
		}
		return nil
	}
	return rec(t.root)
}

// componentUnfinished reports whether id's component root is marked
// unfinished (delayed caching).
func (t *Tree) componentUnfinished(id NodeID) bool {
	cr := t.nd(id).compRoot
	if cr == Nil {
		return false
	}
	return t.nd(cr).unfinished
}
