package pkdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pimkd/internal/geom"
	"pimkd/internal/workload"
)

func makeItems(pts []geom.Point, base int32) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{P: p, ID: base + int32(i)}
	}
	return items
}

func newTree(t *testing.T, n, dim int, seed int64) (*Tree, []Item) {
	t.Helper()
	items := makeItems(workload.Uniform(n, dim, seed), 0)
	tree := New(Config{Dim: dim, Seed: seed}, items)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tree, items
}

func TestBuildSizes(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 1000, 30000} {
		tree, _ := newTree(t, n, 3, int64(n)+1)
		if tree.Size() != n {
			t.Fatalf("n=%d size=%d", n, tree.Size())
		}
	}
}

func TestBuildHeightLogarithmic(t *testing.T) {
	tree, _ := newTree(t, 1<<15, 2, 5)
	h := tree.Height()
	if h > 3*15 {
		t.Fatalf("height %d too large for n=2^15", h)
	}
}

func TestDuplicatePointsBuild(t *testing.T) {
	// All-identical points must collapse into one oversized leaf, not
	// recurse forever.
	p := geom.Point{0.5, 0.5}
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{P: p.Clone(), ID: int32(i)}
	}
	tree := New(Config{Dim: 2}, items)
	if tree.Size() != 100 {
		t.Fatalf("size %d", tree.Size())
	}
	pts, _ := tree.LeafSearch(p)
	if len(pts) != 100 {
		t.Fatalf("leaf holds %d", len(pts))
	}
}

func TestHeavyDuplicateCoordinate(t *testing.T) {
	// Half the points share one x coordinate; the build must still make
	// progress and balance within slack.
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 4000)
	for i := range items {
		x := 0.5
		if i%2 == 0 {
			x = rng.Float64()
		}
		items[i] = Item{P: geom.Point{x, rng.Float64()}, ID: int32(i)}
	}
	tree := New(Config{Dim: 2}, items)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafSearchFindsItem(t *testing.T) {
	tree, items := newTree(t, 5000, 2, 7)
	for i := 0; i < 200; i++ {
		it := items[i*17%len(items)]
		if !tree.Contains(it) {
			t.Fatalf("lost item %d", it.ID)
		}
	}
	if tree.Contains(Item{P: geom.Point{2, 2}, ID: 999999}) {
		t.Fatal("found nonexistent item")
	}
}

func TestKNNMatchesBrute(t *testing.T) {
	tree, items := newTree(t, 2000, 3, 11)
	qs := workload.Uniform(50, 3, 13)
	for _, q := range qs {
		got := tree.KNN(q, 7)
		want := bruteDists(items, q)[:7]
		for i := range got {
			if math.Abs(got[i].Dist2-want[i]) > 1e-12 {
				t.Fatalf("rank %d: %g want %g", i, got[i].Dist2, want[i])
			}
		}
	}
}

func TestANNBound(t *testing.T) {
	tree, items := newTree(t, 2000, 2, 17)
	qs := workload.Uniform(50, 2, 19)
	eps := 0.8
	for _, q := range qs {
		got := tree.ANN(q, 3, eps)
		want := bruteDists(items, q)[:3]
		if math.Sqrt(got[len(got)-1].Dist2) > (1+eps)*math.Sqrt(want[2])+1e-12 {
			t.Fatalf("ANN exceeded bound")
		}
	}
}

func TestRangeAndRadius(t *testing.T) {
	tree, items := newTree(t, 3000, 2, 23)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		lo := geom.Point{rng.Float64() * 0.7, rng.Float64() * 0.7}
		hi := geom.Point{lo[0] + 0.3*rng.Float64(), lo[1] + 0.3*rng.Float64()}
		box := geom.NewBox(lo, hi)
		want := 0
		for _, it := range items {
			if box.Contains(it.P) {
				want++
			}
		}
		if got := tree.RangeCount(box); got != want {
			t.Fatalf("count %d want %d", got, want)
		}
		if got := len(tree.RangeReport(box)); got != want {
			t.Fatalf("report %d want %d", got, want)
		}
	}
	q := geom.Point{0.5, 0.5}
	// A negative or NaN radius is the empty ball, as dist ≤ r literally says.
	for _, r := range []float64{0.2, -0.2, math.NaN()} {
		want := 0
		for _, it := range items {
			if geom.Dist(q, it.P) <= r {
				want++
			}
		}
		if got := tree.RadiusCount(q, r); got != want {
			t.Fatalf("r=%g: radius count %d want %d", r, got, want)
		}
		if got := len(tree.RadiusReport(q, r)); got != want {
			t.Fatalf("r=%g: radius report %d want %d", r, got, want)
		}
	}
}

func TestBatchInsertDelete(t *testing.T) {
	tree, items := newTree(t, 2000, 2, 31)
	extra := makeItems(workload.Uniform(1500, 2, 37), 10000)
	tree.BatchInsert(extra)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("after insert: %v", err)
	}
	if tree.Size() != 3500 {
		t.Fatalf("size %d", tree.Size())
	}
	tree.BatchDelete(items)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	if tree.Size() != 1500 {
		t.Fatalf("size %d", tree.Size())
	}
	for _, it := range extra[:100] {
		if !tree.Contains(it) {
			t.Fatalf("lost inserted item %d", it.ID)
		}
	}
	for _, it := range items[:100] {
		if tree.Contains(it) {
			t.Fatalf("deleted item %d still present", it.ID)
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	tree, items := newTree(t, 500, 2, 41)
	tree.BatchDelete(items)
	if tree.Size() != 0 {
		t.Fatalf("size %d after deleting all", tree.Size())
	}
	// Reinsertion works on the emptied tree.
	tree.BatchInsert(items[:100])
	if tree.Size() != 100 {
		t.Fatalf("size %d after reinsertion", tree.Size())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissingIgnored(t *testing.T) {
	tree, _ := newTree(t, 300, 2, 43)
	ghost := makeItems(workload.Uniform(50, 2, 47), 50000)
	tree.BatchDelete(ghost)
	if tree.Size() != 300 {
		t.Fatalf("size changed to %d", tree.Size())
	}
}

func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := New(Config{Dim: 2, Seed: seed}, nil)
		reference := map[int32]geom.Point{}
		nextID := int32(0)
		for step := 0; step < 12; step++ {
			if rng.Intn(2) == 0 || len(reference) == 0 {
				batch := make([]Item, rng.Intn(120)+1)
				for i := range batch {
					p := geom.Point{rng.Float64(), rng.Float64()}
					batch[i] = Item{P: p, ID: nextID}
					reference[nextID] = p
					nextID++
				}
				tree.BatchInsert(batch)
			} else {
				var batch []Item
				for id, p := range reference {
					batch = append(batch, Item{P: p, ID: id})
					if len(batch) >= 60 {
						break
					}
				}
				for _, it := range batch {
					delete(reference, it.ID)
				}
				tree.BatchDelete(batch)
			}
			if tree.Size() != len(reference) {
				return false
			}
			if err := tree.CheckInvariants(); err != nil {
				return false
			}
		}
		got := tree.Items()
		if len(got) != len(reference) {
			return false
		}
		for _, it := range got {
			if p, ok := reference[it.ID]; !ok || !p.Equal(it.P) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccumulates(t *testing.T) {
	tree, _ := newTree(t, 5000, 2, 53)
	tree.Meter.Reset()
	tree.LeafSearch(geom.Point{0.5, 0.5})
	if tree.Meter.NodeVisits == 0 {
		t.Fatal("no node visits metered")
	}
}

func TestItemsRoundTrip(t *testing.T) {
	tree, items := newTree(t, 1000, 2, 59)
	got := tree.Items()
	if len(got) != len(items) {
		t.Fatalf("items %d want %d", len(got), len(items))
	}
	ids := map[int32]bool{}
	for _, it := range got {
		ids[it.ID] = true
	}
	if len(ids) != len(items) {
		t.Fatal("duplicate or missing ids")
	}
}

func bruteDists(items []Item, q geom.Point) []float64 {
	ds := make([]float64, len(items))
	for i, it := range items {
		ds[i] = geom.Dist2(q, it.P)
	}
	sort.Float64s(ds)
	return ds
}
