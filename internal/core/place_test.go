package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"pimkd/internal/geom"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// TestNodeLayout pins the arena's node at 96 bytes or less, and checks
// that the box and copy-set slabs hold a row per slot of the arena's
// capacity, with free slots' rows zero, as a tree is built, churned and
// partly rebuilt at P = 130 (three copy-set words a row).
func TestNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 96 {
		t.Errorf("node is %d bytes, want ≤ 96", size)
	}
	const dim, p = 3, 130
	tree := New(Config{Dim: dim, Seed: 5, LeafSize: 4}, pim.NewMachine(p, 1<<20))
	items := makeTestItems(workload.Uniform(1<<12, dim, 5), 0)
	steps := []func(){
		func() { tree.Build(items) },
		func() { tree.BatchInsert(makeTestItems(workload.Hotspot(2048, dim, 1e-3, 6), 1<<12)) },
		func() { tree.BatchDelete(items[:3000]) },
		func() { tree.BatchInsert(makeTestItems(workload.Uniform(100, dim, 7), 1<<13)) },
	}
	for i, step := range steps {
		step()
		rows := cap(tree.nodes)
		if got := len(tree.boxes); got != rows*2*dim {
			t.Fatalf("step %d: box slab holds %d floats for %d slots of %d dimensions", i, got, rows, dim)
		}
		if got := len(tree.copySets); got != rows*((p+63)/64) {
			t.Fatalf("step %d: copy-set slab holds %d words for %d slots at P = %d", i, got, rows, p)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if tree.OpStats.Rebuilds == 0 {
		t.Error("no step rebuilt a subtree, so no slot was freed")
	}
}

// TestBuildAndChurnAllocs gates the host garbage of the two batch paths
// that end in node placement and caching, at n = 2^12 and P = 64: a Build
// allocates at most 1.5 times per point, and a 2048-point insert batch
// followed by its delete batch at most 8 times per update op.
func TestBuildAndChurnAllocs(t *testing.T) {
	const (
		n, p, batch = 1 << 12, 64, 2048
		maxPerPoint = 1.5
		maxPerOp    = 8
	)
	cfg := Config{Dim: 2, Seed: 11}
	items := makeTestItems(workload.Uniform(n, 2, 11), 0)
	mach := pim.NewMachine(p, 1<<20)
	perPoint := testing.AllocsPerRun(4, func() {
		New(cfg, mach).Build(items)
	}) / n
	if perPoint > maxPerPoint {
		t.Errorf("Build allocates %.2f times per point, want ≤ %v", perPoint, maxPerPoint)
	}

	tree := New(cfg, mach)
	tree.Build(items)
	fresh := makeTestItems(workload.Uniform(batch, 2, 12), n)
	perOp := testing.AllocsPerRun(4, func() {
		tree.BatchInsert(fresh)
		tree.BatchDelete(fresh)
	}) / (2 * batch)
	if perOp > maxPerOp {
		t.Errorf("churn allocates %.2f times per update op, want ≤ %v", perOp, maxPerOp)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != n {
		t.Fatalf("size %d after churn, want %d", tree.Size(), n)
	}
	t.Logf("%.2f mallocs per built point, %.2f per update op", perPoint, perOp)
}

// TestKNNAllocs gates the host garbage of a kNN batch at n = 2^12, P = 64,
// 4096 queries and k = 8: at most 1.5 allocations per query. A chunk of
// queries shares one candidate heap and one answer slab, and its walkers
// meter into a tally the tree keeps between walks.
func TestKNNAllocs(t *testing.T) {
	const n, queries, k, maxPerQuery = 1 << 12, 4096, 8, 1.5
	tree := New(Config{Dim: 2, Seed: 11}, pim.NewMachine(64, 1<<20))
	tree.Build(makeTestItems(workload.Uniform(n, 2, 11), 0))
	qs := workload.Uniform(queries, 2, 13)
	perQuery := testing.AllocsPerRun(4, func() { tree.KNN(qs, k) }) / queries
	if perQuery > maxPerQuery {
		t.Errorf("kNN allocates %.2f times per query, want ≤ %v", perQuery, maxPerQuery)
	}
	t.Logf("%.2f mallocs per kNN query", perQuery)
}

// TestCachingReference runs twin trees through a Build, eight update
// batches and a final FlushDelayed, one with the bitset caching pass and
// one with the map-based pass it replaced, and requires the same placement
// and meters after every step: each live node's master, replica set and
// charged copies, the tree's space, and the machine's totals
// and per-module loads. P = 65 and 130 need more than one mask word. The
// 64-point batches leave delayed Group-1 components, and at P = 7 with
// ChunkSize 4 they overflow the backlog, so a refresh flushes it from
// inside its own delayed branch; the 4096-point hot-spot batch forces a
// distributed rebuild.
func TestCachingReference(t *testing.T) {
	t.Cleanup(func() { buildCaching = (*Tree).buildCachingDiff })
	const n = 1 << 12
	items := func(pts []geom.Point, base int) []Item {
		out := make([]Item, len(pts))
		for i, p := range pts {
			out[i] = Item{P: p, ID: int32(base + i)}
		}
		return out
	}
	built := items(workload.Uniform(n, 2, 41), 0)
	hot := items(workload.Hotspot(4096, 2, 1e-3, 44), 2*n)
	steps := []func(tr *Tree){
		func(tr *Tree) { tr.Build(built) },
		func(tr *Tree) { tr.BatchInsert(items(workload.Uniform(64, 2, 42), n)) },
		func(tr *Tree) { tr.BatchInsert(items(workload.Uniform(64, 2, 43), n+64)) },
		func(tr *Tree) { tr.BatchDelete(built[:256]) },
		func(tr *Tree) { tr.BatchInsert(hot) },
		func(tr *Tree) { tr.BatchInsert(items(workload.Uniform(64, 2, 45), n+128)) },
		func(tr *Tree) { tr.BatchDelete(built[2048:2560]) },
		func(tr *Tree) { tr.BatchInsert(items(workload.GaussianClusters(512, 2, 4, 0.02, 46), 3*n)) },
		func(tr *Tree) { tr.BatchDelete(hot[:1024]) },
		func(tr *Tree) { tr.FlushDelayed() },
	}
	ps := []int{1, 7, 64, 65, 130}
	if testing.Short() {
		ps = []int{7, 65} // the in-batch flush and two-word masks
	}
	var flushed, distributed bool
	for _, p := range ps {
		for _, chunk := range []int{1, 4} {
			name := fmt.Sprintf("P=%d/chunk=%d", p, chunk)
			twins := [2]*Tree{}
			for k := range twins {
				twins[k] = New(Config{Dim: 2, Seed: 43, ChunkSize: chunk, LeafSize: 2}, pim.NewMachine(p, 1<<20))
			}
			for i, step := range steps {
				pre := twins[0].OpStats
				buildCaching = (*Tree).buildCachingDiff
				step(twins[0])
				buildCaching = referenceCaching
				step(twins[1])
				buildCaching = (*Tree).buildCachingDiff
				if err := sameCaching(twins[0], twins[1]); err != nil {
					t.Fatalf("%s step %d: %v", name, i, err)
				}
				if err := twins[0].CheckInvariants(); err != nil {
					t.Fatalf("%s step %d: %v", name, i, err)
				}
				post := twins[0].OpStats
				if i > 0 && i < len(steps)-1 && post.DelayedFlushes > pre.DelayedFlushes {
					flushed = true
				}
				threshold := int64(max(1024, 4*p*twins[0].cfg.LeafSize))
				if post.Rebuilds-pre.Rebuilds == 1 && post.RebuiltPoints-pre.RebuiltPoints > threshold {
					distributed = true
				}
			}
		}
	}
	if !flushed {
		t.Error("no update batch flushed delayed Group-1 components")
	}
	if !distributed {
		t.Error("no update batch ran a distributed rebuild")
	}
}

// sameCaching compares two trees' placements and machine meters.
func sameCaching(a, b *Tree) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("arena lengths %d and %d", len(a.nodes), len(b.nodes))
	}
	for id := range a.nodes {
		x, y := &a.nodes[id], &b.nodes[id]
		if x.dead != y.dead {
			return fmt.Errorf("node %d dead %v and %v", id, x.dead, y.dead)
		}
		if x.dead {
			continue
		}
		xc, yc := appendModules(nil, a.copyRow(NodeID(id))), appendModules(nil, b.copyRow(NodeID(id)))
		if x.module != y.module || x.chargedCopies != y.chargedCopies || x.compRoot != y.compRoot || !slices.Equal(xc, yc) {
			return fmt.Errorf("node %d: module %d, copies %v, charged %d, compRoot %d; reference: module %d, copies %v, charged %d, compRoot %d",
				id, x.module, xc, x.chargedCopies, x.compRoot, y.module, yc, y.chargedCopies, y.compRoot)
		}
	}
	if a.SpaceWords() != b.SpaceWords() {
		return fmt.Errorf("space %d words, reference %d", a.SpaceWords(), b.SpaceWords())
	}
	if sa, sb := a.mach.SnapshotStats(), b.mach.SnapshotStats(); !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("meters %+v, reference %+v", sa, sb)
	}
	return nil
}

// referenceCaching runs buildCachingDiffMap in buildCaching's place.
func referenceCaching(t *Tree, w *compWalk, prev *placement, r *pim.Round) {
	var prevModule []int32
	var prevCopies [][]int32
	if prev != nil {
		prevModule = prev.module
		prevCopies = make([][]int32, len(w.members))
		for i := range prevCopies {
			prevCopies[i] = appendModules(nil, prev.replicas(i))
		}
	}
	t.buildCachingDiffMap(w.members[0], w.members, prevModule, prevCopies, r)
}

// buildCachingDiffMap is the map-based caching pass buildCachingDiff
// replaced, kept verbatim as its reference. It constructs the dual-way
// caching of one cached component:
// every member is replicated onto the modules of its in-component ancestors
// (top-down caching) and of its in-component descendants (bottom-up
// caching). Transfers are metered as the delta against the previous
// placement (prevModule/prevCopies aligned with members; nil = fresh): only
// new copies are shipped and removed copies cost one invalidation word.
func (t *Tree) buildCachingDiffMap(root NodeID, members []NodeID, prevModule []int32, prevCopies [][]int32, r *pim.Round) {
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
	// Materialize each member's copy set in parallel, into its copy-set
	// row, whose bit order is ascending module order. Space charges
	// accumulate atomically and post once.
	var spaceCopies atomic.Int64
	parallel.ForChunked(len(members), func(lo, hi int) {
		var charged int64
		for _, id := range members[lo:hi] {
			nd := t.nd(id)
			set := copySets[id]
			delete(set, nd.module)
			row := t.copyRow(id)
			clear(row)
			for m := range set {
				setBit(row, m)
			}
			nd.chargedCopies = int32(1 + len(set))
			charged += int64(1 + len(set))
		}
		spaceCopies.Add(charged)
	})
	t.chargeNodeSpace(spaceCopies.Load())
	if r == nil {
		return
	}
	// Meter the placement delta sequentially in member order so the
	// transfer sequence stays deterministic.
	for i, id := range members {
		nd := t.nd(id)
		copies := appendModules(nil, t.copyRow(id))
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
		for _, m := range copies {
			if !had(m) {
				r.Transfer(int(m), nodeWords(t.cfg.Dim))
			}
		}
		// Invalidation words for copies that went away.
		for _, m := range pc {
			still := m == nd.module
			for _, x := range copies {
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
