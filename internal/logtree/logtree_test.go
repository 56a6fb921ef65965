package logtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pkdtree"
	"pimkd/internal/workload"
)

func makeItems(pts []geom.Point, base int32) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{P: p, ID: base + int32(i)}
	}
	return items
}

func TestInsertCascade(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2, Seed: 1})
	total := 0
	for b := 0; b < 20; b++ {
		batch := makeItems(workload.Uniform(50, 2, int64(b)), int32(b*50))
		f.BatchInsert(batch)
		total += 50
		if f.Size() != total {
			t.Fatalf("size %d want %d", f.Size(), total)
		}
	}
	if f.Meter.MergedPoints == 0 {
		t.Fatal("no merges happened across 20 batches")
	}
}

func TestContainsAndSearch(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2, Seed: 2})
	items := makeItems(workload.Uniform(900, 2, 3), 0)
	for lo := 0; lo < len(items); lo += 100 {
		f.BatchInsert(items[lo : lo+100])
	}
	for _, it := range items[:100] {
		if !f.Contains(it) {
			t.Fatalf("lost %d", it.ID)
		}
		leafPts, depth := f.LeafSearch(it.P)
		if depth == 0 {
			t.Fatal("no depth accumulated")
		}
		found := false
		for _, p := range leafPts {
			if p.ID == it.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("leaf search missed %d", it.ID)
		}
	}
}

func TestDeleteTombstonesAndCompaction(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2, Seed: 4})
	items := makeItems(workload.Uniform(1000, 2, 5), 0)
	for lo := 0; lo < 1000; lo += 125 {
		f.BatchInsert(items[lo : lo+125])
	}
	f.BatchDelete(items[:600])
	if f.Size() != 400 {
		t.Fatalf("size %d", f.Size())
	}
	if f.Meter.GlobalRebuilds == 0 {
		t.Fatal("expected a compaction after deleting 60%")
	}
	for _, it := range items[:10] {
		if f.Contains(it) {
			t.Fatalf("tombstoned item %d still live", it.ID)
		}
	}
	for _, it := range items[600:610] {
		if !f.Contains(it) {
			t.Fatalf("live item %d lost in compaction", it.ID)
		}
	}
}

func TestKNNWithTombstones(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2, Seed: 6})
	items := makeItems(workload.Uniform(800, 2, 7), 0)
	for lo := 0; lo < 800; lo += 100 {
		f.BatchInsert(items[lo : lo+100])
	}
	// Tombstone 30% but stay under the compaction threshold.
	f.BatchDelete(items[:240])
	live := items[240:]
	qs := workload.Uniform(30, 2, 9)
	for _, q := range qs {
		got := f.KNN(q, 5)
		want := bruteKNNIDs(live, q, 5)
		if len(got) != 5 {
			t.Fatalf("got %d results", len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist2-want[i]) > 1e-12 {
				t.Fatalf("rank %d: %g want %g", i, got[i].Dist2, want[i])
			}
		}
	}
}

func TestRangeReportSkipsDead(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2, Seed: 8})
	items := makeItems(workload.Uniform(500, 2, 11), 0)
	f.BatchInsert(items)
	f.BatchDelete(items[:100])
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})
	got := f.RangeReport(box)
	if len(got) != 400 {
		t.Fatalf("reported %d want 400", len(got))
	}
	for _, it := range got {
		if it.ID < 100 {
			t.Fatalf("dead item %d reported", it.ID)
		}
	}
}

func TestEmptyForest(t *testing.T) {
	f := New(pkdtree.Config{Dim: 2})
	if f.Size() != 0 {
		t.Fatal("fresh forest non-empty")
	}
	if pts, _ := f.LeafSearch(geom.Point{0.5, 0.5}); pts != nil {
		t.Fatal("search on empty forest returned items")
	}
	f.BatchDelete(makeItems(workload.Uniform(5, 2, 1), 0))
}

func bruteKNNIDs(items []Item, q geom.Point, k int) []float64 {
	ds := make([]float64, len(items))
	for i, it := range items {
		ds[i] = geom.Dist2(q, it.P)
	}
	sort.Float64s(ds)
	return ds[:k]
}

// TestLiveSetMatchesLedger drives mixed batches (fresh inserts, re-inserts
// of deleted IDs at their old or a new point, deletes of live items,
// already-deleted items, never-inserted IDs and live IDs at a wrong point)
// and checks after every batch that the forest's live multiset equals a
// brute-force ledger: Size, a full-space RangeReport, Contains and KNN.
func TestLiveSetMatchesLedger(t *testing.T) {
	// The smallest case: an absent delete must not count, and a deleted
	// item that comes back must be found again.
	f := New(pkdtree.Config{Dim: 2, Seed: 1})
	items := makeItems(workload.Uniform(100, 2, 1), 0)
	f.BatchInsert(items)
	f.BatchDelete([]Item{{P: geom.Point{0.5, 0.5}, ID: 1000}})
	if f.Size() != 100 {
		t.Fatalf("deleting an absent ID: size %d, want 100", f.Size())
	}
	f.BatchDelete(items[5:6])
	f.BatchInsert(items[5:6])
	if !f.Contains(items[5]) {
		t.Fatal("re-inserted item 5 is not found")
	}
	if got := f.KNN(items[5].P, 1); len(got) != 1 || got[0].ID != 5 || got[0].Dist2 != 0 {
		t.Fatalf("KNN at item 5's point: %+v", got)
	}

	rng := rand.New(rand.NewSource(7))
	f = New(pkdtree.Config{Dim: 2, Seed: 2})
	ledger := map[int32]geom.Point{}
	var gone []Item // deleted, not yet re-inserted
	next := int32(0)
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 || len(ledger) == 0 {
			var batch []Item
			for i := rng.Intn(80) + 1; i > 0; i-- {
				if len(gone) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(gone))
					it := gone[j]
					gone = append(gone[:j], gone[j+1:]...)
					if rng.Intn(2) == 0 {
						it.P = geom.Point{rng.Float64(), rng.Float64()}
					}
					batch = append(batch, it)
					continue
				}
				batch = append(batch, Item{P: geom.Point{rng.Float64(), rng.Float64()}, ID: next})
				next++
			}
			f.BatchInsert(batch)
			for _, it := range batch {
				ledger[it.ID] = it.P
			}
		} else {
			var batch []Item
			for i := rng.Intn(60) + 1; i > 0; i-- {
				switch rng.Intn(4) {
				case 0: // never inserted
					batch = append(batch, Item{P: geom.Point{rng.Float64(), rng.Float64()}, ID: 1<<20 + int32(rng.Intn(100))})
				case 1: // already deleted, or a live ID at a wrong point
					if len(gone) > 0 && rng.Intn(2) == 0 {
						batch = append(batch, gone[rng.Intn(len(gone))])
					} else {
						batch = append(batch, Item{P: geom.Point{2, 2}, ID: int32(rng.Intn(int(next) + 1))})
					}
				default: // live
					id := int32(rng.Intn(int(next) + 1))
					if p, ok := ledger[id]; ok {
						batch = append(batch, Item{P: p, ID: id})
					}
				}
			}
			f.BatchDelete(batch)
			for _, it := range batch {
				if p, ok := ledger[it.ID]; ok && p.Equal(it.P) {
					delete(ledger, it.ID)
					gone = append(gone, it)
				}
			}
		}
		checkLedger(t, step, f, ledger, gone, rng)
	}
}

func checkLedger(t *testing.T, step int, f *Forest, ledger map[int32]geom.Point, gone []Item, rng *rand.Rand) {
	t.Helper()
	if f.Size() != len(ledger) {
		t.Fatalf("step %d: size %d, ledger %d", step, f.Size(), len(ledger))
	}
	got := f.RangeReport(geom.NewBox(geom.Point{-1, -1}, geom.Point{3, 3}))
	if len(got) != len(ledger) {
		t.Fatalf("step %d: full-space range reports %d items, ledger %d", step, len(got), len(ledger))
	}
	seen := map[int32]bool{}
	for _, it := range got {
		if p, ok := ledger[it.ID]; !ok || !p.Equal(it.P) || seen[it.ID] {
			t.Fatalf("step %d: reported item %d at %v is not live once in the ledger", step, it.ID, it.P)
		}
		seen[it.ID] = true
	}
	for id, p := range ledger {
		if !f.Contains(Item{P: p, ID: id}) {
			t.Fatalf("step %d: live item %d not found", step, id)
		}
	}
	for _, it := range gone {
		if _, back := ledger[it.ID]; !back && f.Contains(it) {
			t.Fatalf("step %d: deleted item %d still found", step, it.ID)
		}
	}
	live := make([]Item, 0, len(ledger))
	for id, p := range ledger {
		live = append(live, Item{P: p, ID: id})
	}
	k := 4
	if len(live) < k {
		k = len(live)
	}
	for i := 0; i < 5; i++ {
		q := geom.Point{rng.Float64(), rng.Float64()}
		res := f.KNN(q, k)
		want := bruteKNNIDs(live, q, k)
		if len(res) != k {
			t.Fatalf("step %d: KNN returned %d, want %d", step, len(res), k)
		}
		for r := range res {
			if res[r].Dist2 != want[r] {
				t.Fatalf("step %d: KNN rank %d dist² %g, want %g", step, r, res[r].Dist2, want[r])
			}
		}
	}
}
