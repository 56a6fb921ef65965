package core

import (
	"math"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

func TestEmptyTreeOperations(t *testing.T) {
	mach := pim.NewMachine(8, 1<<20)
	tree := New(Config{Dim: 2, Seed: 1}, mach)
	qs := workload.Uniform(5, 2, 1)
	for _, leaf := range tree.LeafSearch(qs) {
		if leaf != Nil {
			t.Fatal("empty tree returned a leaf")
		}
	}
	if res := tree.KNN(qs, 3); res[0] != nil {
		t.Fatal("empty tree returned kNN results")
	}
	if c := tree.RangeCount([]geom.Box{geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})}); c[0] != 0 {
		t.Fatal("empty tree counted points")
	}
	tree.BatchDelete([]Item{{P: geom.Point{0.5, 0.5}, ID: 9}})
	if tree.Size() != 0 {
		t.Fatal("delete on empty tree changed size")
	}
	// First insert on an empty tree bulk-builds.
	tree.BatchInsert([]Item{{P: geom.Point{0.5, 0.5}, ID: 1}})
	if tree.Size() != 1 {
		t.Fatal("insert into empty tree failed")
	}
}

// TestRadiusEdges checks every ball query against a literal dist ≤ r brute
// force at the edges of the radius domain: a negative or NaN radius is the
// empty ball (squaring it would answer the |r|-ball), ±0 matches coincident
// points only, and +Inf matches everything. ANN clamps a NaN ε to exact.
func TestRadiusEdges(t *testing.T) {
	tree, items := testTree(t, 2000, 2, 8, 5)
	centers := []geom.Point{{0.5, 0.5}, items[7].P, items[1500].P}
	probes := make([]Item, len(centers))
	for i, c := range centers {
		probes[i] = Item{P: c, ID: int32(5000 + i)}
	}
	probeTree := New(Config{Dim: 2, Seed: 6}, pim.NewMachine(8, 1<<20))
	probeTree.Build(probes)
	same := func(got, want []Item) bool {
		SortItems(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !ItemEq(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	for _, r := range []float64{-0.1, math.NaN(), math.Copysign(0, -1), 0, 0.1, math.Inf(1)} {
		want := make([][]Item, len(centers))
		pairs := 0
		for i, c := range centers {
			for _, it := range items {
				if geom.Dist(c, it.P) <= r {
					want[i] = append(want[i], it)
				}
			}
			SortItems(want[i])
			pairs += len(want[i])
		}
		counts := tree.RadiusCount(centers, r)
		reports := tree.RadiusReport(centers, r)
		joins := tree.ProbeJoin(probes, r)
		for i := range centers {
			if counts[i] != len(want[i]) {
				t.Errorf("r=%g center %d: RadiusCount %d, want %d", r, i, counts[i], len(want[i]))
			}
			if !same(reports[i], want[i]) {
				t.Errorf("r=%g center %d: RadiusReport has %d items, want %d", r, i, len(reports[i]), len(want[i]))
			}
			if !same(joins[i], want[i]) {
				t.Errorf("r=%g probe %d: ProbeJoin has %d items, want %d", r, i, len(joins[i]), len(want[i]))
			}
		}
		if got := len(tree.JoinTrees(probeTree, r)); got != pairs {
			t.Errorf("r=%g: JoinTrees has %d pairs, want %d", r, got, pairs)
		}
	}
	exact, nan := tree.KNN(centers, 5), tree.ANN(centers, 5, math.NaN())
	for i := range centers {
		for j := range exact[i] {
			if j >= len(nan[i]) || nan[i][j].ID != exact[i][j].ID {
				t.Fatalf("center %d: ANN with NaN eps %v, want exact %v", i, nan[i], exact[i])
			}
		}
	}
}

func TestSinglePointTree(t *testing.T) {
	mach := pim.NewMachine(8, 1<<20)
	tree := New(Config{Dim: 3, Seed: 2}, mach)
	it := Item{P: geom.Point{0.1, 0.2, 0.3}, ID: 42}
	tree.Build([]Item{it})
	leaves := tree.LeafSearch([]geom.Point{it.P, {0.9, 0.9, 0.9}})
	if leaves[0] != leaves[1] {
		t.Fatal("single-leaf tree routed queries differently")
	}
	nn := tree.KNN([]geom.Point{{0, 0, 0}}, 5)
	if len(nn[0]) != 1 || nn[0][0].ID != 42 {
		t.Fatalf("kNN on single point: %v", nn[0])
	}
	tree.BatchDelete([]Item{it})
	if tree.Size() != 0 || tree.Root() != Nil {
		t.Fatal("deleting the only point did not empty the tree")
	}
}

func TestKNNKLargerThanN(t *testing.T) {
	tree, items := testTree(t, 20, 2, 4, 3)
	res := tree.KNN([]geom.Point{{0.5, 0.5}}, 50)
	if len(res[0]) != len(items) {
		t.Fatalf("k>n returned %d of %d", len(res[0]), len(items))
	}
}

func TestBuildPanicsOnNonEmpty(t *testing.T) {
	tree, items := testTree(t, 100, 2, 4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("second Build did not panic")
		}
	}()
	tree.Build(items)
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dim=0 did not panic")
		}
	}()
	New(Config{}, pim.NewMachine(2, 1<<16))
}

// TestDimensionSweep checks structure, leaf routing and kNN in 1 to 5
// dimensions and in 20, above the 16 axes kd.ExactSplit orders without
// allocating.
func TestDimensionSweep(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 5, 20} {
		tree, items := testTree(t, 2000, dim, 8, int64(dim))
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		qs := workload.Uniform(50, dim, int64(dim)+10)
		got := tree.LeafSearch(qs)
		for i, q := range qs {
			if want := seqLeaf(tree, q); got[i] != want {
				t.Fatalf("dim %d query %d: got %d want %d", dim, i, got[i], want)
			}
		}
		nn := tree.KNN(qs[:10], 3)
		for i, q := range qs[:10] {
			want := bruteKNN(items, q, 3)
			for j := range nn[i] {
				if diff := nn[i][j].Dist2 - want[j]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("dim %d: kNN mismatch", dim)
				}
			}
		}
	}
}

func TestInsertDuplicateIDsAllowed(t *testing.T) {
	// The tree does not police ID uniqueness; deletes match (point, id)
	// pairs, so duplicate ids at different positions are independent.
	mach := pim.NewMachine(4, 1<<20)
	tree := New(Config{Dim: 2, Seed: 7}, mach)
	a := Item{P: geom.Point{0.1, 0.1}, ID: 1}
	b := Item{P: geom.Point{0.9, 0.9}, ID: 1}
	tree.Build([]Item{a, b})
	tree.BatchDelete([]Item{a})
	if tree.Size() != 1 {
		t.Fatalf("size %d", tree.Size())
	}
	left := tree.Items()
	if len(left) != 1 || !left[0].P.Equal(b.P) {
		t.Fatalf("wrong survivor %v", left)
	}
}

func TestRangeCountHugeBox(t *testing.T) {
	tree, _ := testTree(t, 3000, 2, 16, 9)
	box := geom.NewBox(geom.Point{-10, -10}, geom.Point{10, 10})
	if c := tree.RangeCount([]geom.Box{box})[0]; c != 3000 {
		t.Fatalf("huge box counted %d", c)
	}
}

func TestFlushDelayedOnEmpty(t *testing.T) {
	mach := pim.NewMachine(8, 1<<20)
	tree := New(Config{Dim: 2, Seed: 11}, mach)
	tree.FlushDelayed() // no-op, must not panic
	if mach.Stats().Rounds != 0 {
		t.Fatal("flush on empty tree consumed a round")
	}
}

func TestContainsBatch(t *testing.T) {
	tree, items := testTree(t, 2000, 2, 8, 15)
	probe := append([]Item{}, items[:50]...)
	probe = append(probe, Item{P: geom.Point{2, 2}, ID: 999999})
	probe = append(probe, Item{P: items[0].P, ID: 888888}) // right spot, wrong id
	got := tree.Contains(probe)
	for i := 0; i < 50; i++ {
		if !got[i] {
			t.Fatalf("stored item %d not found", i)
		}
	}
	if got[50] || got[51] {
		t.Fatal("phantom membership")
	}
	tree.BatchDelete(items[:10])
	got = tree.Contains(probe[:10])
	for i, ok := range got {
		if ok {
			t.Fatalf("deleted item %d still contained", i)
		}
	}
}

func TestConstructionWithTinyCache(t *testing.T) {
	// A cache too small for the default sketch forces the σ cap; the tree
	// must still be valid.
	mach := pim.NewMachine(32, 512)
	tree := New(Config{Dim: 2, Seed: 17}, mach)
	tree.Build(makeTestItems(workload.Uniform(8000, 2, 19), 0))
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 8000 {
		t.Fatalf("size %d", tree.Size())
	}
}

func TestStartModuleSpreads(t *testing.T) {
	mach := pim.NewMachine(8, 1<<20)
	tree := New(Config{Dim: 2, Seed: 13}, mach)
	seen := map[int32]bool{}
	for i := 0; i < 16; i++ {
		seen[tree.startModule(i)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("start modules cover %d of 8", len(seen))
	}
}
