package core

import (
	"math/rand"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// TestDualWayLocality checks the defining property of the caching layout
// directly: within a cached component, a node is local to the master module
// of each of its in-component ancestors (top-down caching) and of each of
// its in-component descendants (bottom-up caching), and never local to an
// unrelated module unless placement happens to coincide.
func TestDualWayLocality(t *testing.T) {
	tree := buildSmall(t, 20000, 256, 1)
	checked := 0
	var rec func(id NodeID)
	rec = func(id NodeID) {
		nd := tree.nd(id)
		if tree.cachedGroup(nd.group) && !tree.componentUnfinished(id) {
			// Ancestor direction.
			for a := nd.parent; a != Nil && tree.nd(a).group == nd.group; a = tree.nd(a).parent {
				if !tree.isLocal(id, tree.nd(a).module) {
					t.Fatalf("node %d not local on in-group ancestor %d's module", id, a)
				}
				if !tree.isLocal(a, nd.module) {
					t.Fatalf("ancestor %d not local on node %d's module (bottom-up chain)", a, id)
				}
				checked++
			}
		}
		if nd.group == 0 {
			// Group 0 is local everywhere.
			for m := 0; m < 5; m++ {
				if !tree.isLocal(id, int32(m)) {
					t.Fatalf("group-0 node %d not local on module %d", id, m)
				}
			}
		}
		if !nd.leaf {
			rec(nd.left)
			rec(nd.right)
		}
	}
	rec(tree.Root())
	if checked == 0 {
		t.Fatal("no in-group ancestor pairs were checked")
	}
}

// TestChunkPlacement: with ChunkSize C, BFS runs of C component members
// must share a master module.
func TestChunkPlacement(t *testing.T) {
	mach := pim.NewMachine(64, 1<<20)
	tree := New(Config{Dim: 2, Seed: 3, ChunkSize: 4, LeafSize: 1}, mach)
	tree.Build(makeTestItems(workload.Uniform(20000, 2, 5), 0))
	comps := 0
	var rec func(id NodeID)
	rec = func(id NodeID) {
		nd := tree.nd(id)
		isRoot := nd.parent == Nil || tree.nd(nd.parent).group != nd.group
		if isRoot && tree.cachedGroup(nd.group) {
			var w compWalk
			tree.componentMembers(id, &w)
			members := w.members
			comps++
			for i, m := range members {
				leader := members[i-(i%4)]
				if tree.nd(m).module != tree.nd(leader).module {
					t.Fatalf("chunk member %d on module %d, leader %d on %d",
						m, tree.nd(m).module, leader, tree.nd(leader).module)
				}
			}
		}
		if !nd.leaf {
			rec(nd.left)
			rec(nd.right)
		}
	}
	rec(tree.Root())
	if comps == 0 {
		t.Fatal("no cached components found")
	}
}

// TestPromotionOnGrowth grows one subtree until nodes cross group
// thresholds and verifies the tree regroups consistently.
func TestPromotionOnGrowth(t *testing.T) {
	mach := pim.NewMachine(256, 1<<20)
	tree := New(Config{Dim: 2, Seed: 7, LeafSize: 2}, mach)
	tree.Build(makeTestItems(workload.Uniform(4000, 2, 9), 0))
	// Count nodes per group before.
	before := groupCounts(tree)
	// Hammer one corner with inserts: its subtree sizes grow, so nodes
	// must migrate toward shallower groups.
	next := int32(100000)
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 20; b++ {
		batch := make([]Item, 512)
		for i := range batch {
			batch[i] = Item{
				P:  geom.Point{rng.Float64() * 0.05, rng.Float64() * 0.05},
				ID: next,
			}
			next++
		}
		tree.BatchInsert(batch)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	after := groupCounts(tree)
	if after[0] <= before[0] {
		t.Fatalf("no promotions into group 0 despite 2.5x growth: %v -> %v", before, after)
	}
}

// TestDemotionOnShrink deletes most of the tree and verifies groups shrink
// back (nodes demote) while invariants hold.
func TestDemotionOnShrink(t *testing.T) {
	mach := pim.NewMachine(256, 1<<20)
	tree := New(Config{Dim: 2, Seed: 13, LeafSize: 2}, mach)
	items := makeTestItems(workload.Uniform(30000, 2, 15), 0)
	tree.Build(items)
	before := groupCounts(tree)
	for lo := 0; lo < 27000; lo += 1500 {
		tree.BatchDelete(items[lo : lo+1500])
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("delete chunk %d: %v", lo, err)
		}
	}
	after := groupCounts(tree)
	if after[0] >= before[0] {
		t.Fatalf("group 0 did not shrink after deleting 90%%: %v -> %v", before, after)
	}
}

// TestCounterDriftStaysBounded: after heavy churn, approximate counters
// must remain within a constant factor of the exact shadow sizes for large
// subtrees (small subtrees are exact by the p=1 regime).
func TestCounterDriftStaysBounded(t *testing.T) {
	mach := pim.NewMachine(64, 1<<20)
	tree := New(Config{Dim: 2, Seed: 17}, mach)
	items := makeTestItems(workload.Uniform(10000, 2, 19), 0)
	tree.Build(items)
	next := int32(50000)
	for b := 0; b < 10; b++ {
		ins := makeTestItems(workload.Uniform(1000, 2, int64(b)+60), next)
		next += 1000
		tree.BatchInsert(ins)
		tree.BatchDelete(items[b*1000 : (b+1)*1000])
	}
	var rec func(id NodeID)
	rec = func(id NodeID) {
		nd := tree.nd(id)
		if nd.exact >= 256 {
			ratio := nd.count.Value() / float64(nd.exact)
			if ratio < 0.4 || ratio > 2.5 {
				t.Fatalf("node %d: approx %.0f vs exact %d (ratio %.2f)",
					id, nd.count.Value(), nd.exact, ratio)
			}
		}
		if !nd.leaf {
			rec(nd.left)
			rec(nd.right)
		}
	}
	rec(tree.Root())
}

// TestPullCascadeCorrectness: with τ = 1 every node is pulled, exercising
// the pure level-by-level CPU descent; results must match routing.
func TestPullCascadeCorrectness(t *testing.T) {
	mach := pim.NewMachine(16, 1<<20)
	tree := New(Config{Dim: 2, Seed: 21, PushPullFactor: -1}, mach)
	pts := workload.Uniform(8000, 2, 23)
	tree.Build(makeTestItems(pts, 0))
	qs := workload.Hotspot(500, 2, 1e-3, 25)
	got := tree.LeafSearch(qs)
	for i, q := range qs {
		if want := seqLeaf(tree, q); got[i] != want {
			t.Fatalf("pull-only query %d: got %d want %d", i, got[i], want)
		}
	}
	if tree.OpStats.Pushes != 0 {
		t.Fatalf("pull-only config pushed %d times", tree.OpStats.Pushes)
	}
}

// TestSearchAfterEveryConfigKnob is a torture pass combining knobs.
func TestSearchAfterEveryConfigKnob(t *testing.T) {
	pts := workload.Uniform(6000, 3, 27)
	qs := workload.Sample(pts, 200, 0.001, 29)
	for _, cfg := range []Config{
		{Dim: 3, Seed: 1, Groups: 1, ChunkSize: 8, PushPullFactor: 1 << 30, NoDelayedGroup1: true, LeafSize: 4},
		{Dim: 3, Seed: 2, Groups: 2, ChunkSize: 2, PushPullFactor: -1, Alpha: 0.25, Beta: 0.5},
	} {
		mach := pim.NewMachine(32, 1<<20)
		tree := New(cfg, mach)
		tree.Build(makeTestItems(pts, 0))
		got := tree.LeafSearch(qs)
		for i, q := range qs {
			if want := seqLeaf(tree, q); got[i] != want {
				t.Fatalf("cfg %+v query %d: got %d want %d", cfg, i, got[i], want)
			}
		}
	}
}

// TestDependentPointsSelfExcluded: a point is never its own dependent.
func TestDependentPointsSelfExcluded(t *testing.T) {
	mach := pim.NewMachine(8, 1<<20)
	tree := New(Config{Dim: 2, Seed: 31}, mach)
	items := makeTestItems(workload.Uniform(500, 2, 33), 0)
	for i := range items {
		items[i].Priority = float64(i % 7)
	}
	tree.Build(items)
	deps := tree.DependentPoints(items)
	maxPri, maxID := -1.0, int32(-1)
	for _, it := range items {
		if it.Priority > maxPri || (it.Priority == maxPri && it.ID > maxID) {
			maxPri, maxID = it.Priority, it.ID
		}
	}
	for i, d := range deps {
		if d.ID == items[i].ID {
			t.Fatalf("item %d is its own dependent", i)
		}
		if items[i].ID == maxID && d.ID != -1 {
			t.Fatalf("global peak has dependent %d", d.ID)
		}
		if items[i].ID != maxID && d.ID < 0 {
			t.Fatalf("non-peak item %d has no dependent", i)
		}
	}
}

func groupCounts(tree *Tree) []int {
	counts := make([]int, tree.LogStarP()+1)
	for _, st := range tree.DecompositionStats() {
		counts[st.Group] = st.Nodes
	}
	return counts
}

func buildSmall(t *testing.T, n, p int, seed int64) *Tree {
	t.Helper()
	mach := pim.NewMachine(p, 1<<20)
	tree := New(Config{Dim: 2, Seed: seed, LeafSize: 2}, mach)
	tree.Build(makeTestItems(workload.Uniform(n, 2, seed), 0))
	return tree
}
