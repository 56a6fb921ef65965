package pkdtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pimkd/internal/geom"
)

// FuzzBatchOps drives derived insert/delete/search sequences from raw fuzz
// bytes, checking the structural invariants, membership semantics and the
// range queries after every step. `go test` runs the seed corpus; `go test
// -fuzz=FuzzBatchOps` explores further.
func FuzzBatchOps(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(50))
	f.Add(int64(42), uint8(7), uint8(200))
	f.Add(int64(-9), uint8(1), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, steps, batchRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		// The range queries draw from their own stream, so they leave the
		// update sequence a seed derives unchanged.
		qrng := rand.New(rand.NewSource(^seed))
		batch := int(batchRaw)%200 + 1
		tree := New(Config{Dim: 2, Seed: seed}, nil)
		ref := map[int32]geom.Point{}
		next := int32(0)
		for s := 0; s < int(steps)%8+1; s++ {
			if rng.Intn(2) == 0 || len(ref) == 0 {
				items := make([]Item, batch)
				for i := range items {
					// Quantized coordinates provoke duplicate values.
					p := geom.Point{float64(rng.Intn(16)) / 16, float64(rng.Intn(16)) / 16}
					items[i] = Item{P: p, ID: next}
					ref[next] = p
					next++
				}
				tree.BatchInsert(items)
			} else {
				var items []Item
				for id, p := range ref {
					items = append(items, Item{P: p, ID: id})
					if len(items) >= batch/2+1 {
						break
					}
				}
				for _, it := range items {
					delete(ref, it.ID)
				}
				tree.BatchDelete(items)
			}
			if tree.Size() != len(ref) {
				t.Fatalf("size %d want %d", tree.Size(), len(ref))
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkRegions(t, tree, ref, qrng)
		}
		for id, p := range ref {
			if !tree.Contains(Item{P: p, ID: id}) {
				t.Fatalf("lost item %d", id)
			}
			break // one membership probe per run keeps fuzzing fast
		}
	})
}

// checkRegions checks RangeCount, RangeReport, RadiusCount and
// RadiusReport against a scan of ref on the quantized grid: a random box, a
// box flat on one axis, a random ball, and balls of radius 0, -1 and NaN
// around a grid point.
func checkRegions(t *testing.T, tree *Tree, ref map[int32]geom.Point, rng *rand.Rand) {
	t.Helper()
	coord := func() float64 { return float64(rng.Intn(17)) / 16 }
	box := geom.Box{Lo: geom.Point{coord(), coord()}, Hi: geom.Point{coord(), coord()}}
	for d := range box.Lo {
		if box.Lo[d] > box.Hi[d] {
			box.Lo[d], box.Hi[d] = box.Hi[d], box.Lo[d]
		}
	}
	flat := geom.Box{Lo: geom.Point{0, coord()}, Hi: geom.Point{1, 0}}
	flat.Hi[1] = flat.Lo[1]
	for _, b := range []geom.Box{box, flat} {
		check(t, fmt.Sprintf("box %v", b), tree.RangeCount(b), tree.RangeReport(b), ref, b.Contains)
	}
	c := geom.Point{coord(), coord()}
	for _, r := range []float64{coord() / 2, 0, -1, math.NaN()} {
		in := func(p geom.Point) bool { return geom.Dist2(c, p) <= r*r && r >= 0 }
		check(t, fmt.Sprintf("ball %v r %v", c, r), tree.RadiusCount(c, r), tree.RadiusReport(c, r), ref, in)
	}
}

// check compares one region's count and report with the IDs in ref whose
// points are in it.
func check(t *testing.T, what string, count int, report []Item, ref map[int32]geom.Point, in func(geom.Point) bool) {
	t.Helper()
	var want []int32
	for id, p := range ref {
		if in(p) {
			want = append(want, id)
		}
	}
	got := make([]int32, len(report))
	for i, it := range report {
		if !it.P.Equal(ref[it.ID]) {
			t.Fatalf("%s: reports item %d at %v, stored at %v", what, it.ID, it.P, ref[it.ID])
		}
		got[i] = it.ID
	}
	slices.Sort(want)
	slices.Sort(got)
	if count != len(want) || !slices.Equal(got, want) {
		t.Fatalf("%s: count %d, report %v, want %v", what, count, got, want)
	}
}

// FuzzKNNAgainstBrute checks exact kNN against brute force on fuzz-derived
// points, including heavy duplicates and collinear layouts.
func FuzzKNNAgainstBrute(f *testing.F) {
	f.Add(int64(5), uint8(40), uint8(3))
	f.Add(int64(77), uint8(200), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8) {
		n := int(nRaw)%300 + 2
		k := int(kRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				P:  geom.Point{float64(rng.Intn(8)) / 8, float64(rng.Intn(8)) / 8},
				ID: int32(i),
			}
		}
		tree := New(Config{Dim: 2, Seed: seed}, items)
		q := geom.Point{rng.Float64(), rng.Float64()}
		got := tree.KNN(q, k)
		ds := make([]float64, n)
		for i, it := range items {
			ds[i] = geom.Dist2(q, it.P)
		}
		for i := 0; i < len(ds); i++ {
			for j := i + 1; j < len(ds); j++ {
				if ds[j] < ds[i] {
					ds[i], ds[j] = ds[j], ds[i]
				}
			}
		}
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			t.Fatalf("got %d results want %d", len(got), want)
		}
		for i := range got {
			if math.Abs(got[i].Dist2-ds[i]) > 1e-12 {
				t.Fatalf("rank %d: %g want %g", i, got[i].Dist2, ds[i])
			}
		}
	})
}
