package pkdtree

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/workload"
)

// goldenRow is one phase of a fixed-seed run: the tree's Meter, its Height
// and a hash of its WalkCells preorder after the phase.
type goldenRow struct {
	phase  string
	meter  Meter
	height int
	cells  uint64
}

// TestMeterGolden pins the baseline's metered counts and tree shapes on a
// fixed-seed run: Build, one insert batch, one delete batch, 256 kNN
// queries, then goldenRegions' boxes through RangeCount and RangeReport and
// its balls through RadiusCount and RadiusReport, on a uniform set
// (skeleton build, streaming transfers charged) and on a duplicate-heavy
// one (exact fallbacks, α fixes, oversized leaves). The build to knn rows
// were captured before the build kernels moved into internal/kd, and the
// region rows before the range walks merged into one, except radius-report's
// NodeVisits: it fell when RadiusReport began collecting a covered subtree
// whole, as RangeReport does. Any drift means a baseline row in E1, E2, E4
// or E14 moved.
func TestMeterGolden(t *testing.T) {
	want := map[string][]goldenRow{
		"uniform": {
			{"build", Meter{0, 326156, 20000, 0, 0}, 15, 0x2bf366196acd3079},
			{"insert", Meter{39130, 438022, 27931, 4, 8145}, 15, 0x8f3f061977e39065},
			{"delete", Meter{126261, 547217, 32708, 202, 15086}, 15, 0xdcdde16084fa2568},
			{"knn", Meter{132836, 553545, 32708, 202, 15086}, 15, 0x2133ce1fa767bdaf},
			{"range-count", Meter{138408, 558879, 32708, 202, 15086}, 15, 0x56116a98b3aefd49},
			{"range-report", Meter{143980, 622229, 32708, 202, 15086}, 15, 0x5b0b23c4d48d28c8},
			{"radius-count", Meter{153408, 630488, 32708, 202, 15086}, 15, 0x61f869b01753e346},
			{"radius-report", Meter{162836, 792536, 32708, 202, 15086}, 15, 0x7e192a9a9fdbd5dc},
		},
		"duplicates": {
			{"build", Meter{0, 319291, 0, 0, 0}, 8, 0xeca9455abd9dce99},
			{"insert", Meter{18134, 455611, 0, 3, 7905}, 9, 0xbc330f7546dea624},
			{"delete", Meter{40177, 3537248, 0, 5, 13168}, 9, 0x195e261644285bcb},
			{"knn", Meter{43321, 3598317, 0, 5, 13168}, 9, 0x5460cba004fad994},
			{"range-count", Meter{43524, 3598317, 0, 5, 13168}, 9, 0xb58a8de18a1af0f2},
			{"range-report", Meter{43727, 3613000, 0, 5, 13168}, 9, 0x18cd2ec93b5cd507},
			{"radius-count", Meter{44436, 3613000, 0, 5, 13168}, 9, 0x584b9e60ce559875},
			{"radius-report", Meter{45145, 3671715, 0, 5, 13168}, 9, 0x78483b492da43a4b},
		},
	}
	for _, set := range []string{"uniform", "duplicates"} {
		got := goldenRun(set)
		w := want[set]
		for i, row := range got {
			if i >= len(w) || row != w[i] {
				t.Errorf("%s: got %s", set, row.literal())
			}
		}
		if len(w) != len(got) {
			t.Errorf("%s: %d rows, want %d", set, len(got), len(w))
		}
	}
}

func (r goldenRow) literal() string {
	m := r.meter
	return fmt.Sprintf("{%q, Meter{%d, %d, %d, %d, %d}, %d, %#x},",
		r.phase, m.NodeVisits, m.PointOps, m.CacheXfers, m.Rebuilds, m.RebuiltPoints, r.height, r.cells)
}

// goldenRun runs the fixed-seed sequence on one data set.
func goldenRun(set string) []goldenRow {
	rng := rand.New(rand.NewSource(17))
	var cfg Config
	var pts, ins []geom.Point
	switch set {
	case "uniform":
		// A small cache makes the skeleton several passes deep and charges
		// streaming transfers.
		cfg = Config{Dim: 2, CacheM: 1 << 12, Seed: 3}
		pts = workload.Uniform(20000, 2, 5)
		ins = workload.GaussianClusters(3000, 2, 2, 0.01, 6)
	case "duplicates":
		// Coordinates on a 4-level grid plus one point carrying a third of
		// the multiset: many exact fallbacks, indivisible leaves and forced
		// imbalance. n crosses the 4096 fork of the exact build.
		cfg = Config{Dim: 3, Seed: 4}
		pts = make([]geom.Point, 9000)
		for i := range pts {
			if i%3 == 0 {
				pts[i] = geom.Point{0.25, 0.5, 0.75}
				continue
			}
			pts[i] = geom.Point{float64(rng.Intn(4)) / 4, float64(rng.Intn(4)) / 4, float64(rng.Intn(4)) / 4}
		}
		ins = make([]geom.Point, 2500)
		for i := range ins {
			ins[i] = geom.Point{float64(rng.Intn(2)) / 4, 0.5, float64(rng.Intn(8)) / 8}
		}
	}
	items := makeItems(pts, 0)
	tree := New(cfg, items)
	var rows []goldenRow
	snap := func(phase string) {
		rows = append(rows, goldenRow{phase, tree.Meter, tree.Height(), cellsHash(tree)})
	}
	snap("build")
	tree.BatchInsert(makeItems(ins, int32(len(pts))))
	snap("insert")
	del := make([]Item, 0, len(items)/3)
	for _, i := range rng.Perm(len(items))[:len(items)/3] {
		del = append(del, items[i])
	}
	tree.BatchDelete(del)
	snap("delete")
	// A query phase's row XORs a hash of its answers into the cells hash.
	query := func(phase string, ask func(h hash.Hash64)) {
		h := fnv.New64a()
		ask(h)
		snap(phase)
		rows[len(rows)-1].cells ^= h.Sum64()
	}
	query("knn", func(h hash.Hash64) {
		for _, q := range workload.Uniform(256, cfg.Dim, 8) {
			for _, c := range tree.KNN(q, 8) {
				writeWords(h, uint64(c.ID), math.Float64bits(c.Dist2))
			}
		}
	})
	boxes, centers, radii := goldenRegions(cfg.Dim, items[0].P)
	report := func(h hash.Hash64, items []Item) {
		for _, it := range items {
			writeWords(h, uint64(it.ID))
		}
		writeWords(h, math.MaxUint64)
	}
	query("range-count", func(h hash.Hash64) {
		for _, b := range boxes {
			writeWords(h, uint64(tree.RangeCount(b)))
		}
	})
	query("range-report", func(h hash.Hash64) {
		for _, b := range boxes {
			report(h, tree.RangeReport(b))
		}
	})
	query("radius-count", func(h hash.Hash64) {
		for i, c := range centers {
			writeWords(h, uint64(tree.RadiusCount(c, radii[i])))
		}
	})
	query("radius-report", func(h hash.Hash64) {
		for i, c := range centers {
			report(h, tree.RadiusReport(c, radii[i]))
		}
	})
	return rows
}

// goldenRegions returns the region phases' fixed queries in the unit cube:
// random boxes of four widths plus a box flat on every axis but the first,
// the whole cube and a box outside it; and random balls of five radii plus
// balls of radius 0 on the stored point at, of radius -1 and of radius NaN.
func goldenRegions(dim int, at geom.Point) (boxes []geom.Box, centers []geom.Point, radii []float64) {
	rng := rand.New(rand.NewSource(29))
	coord := func() float64 { return float64(rng.Intn(64)) / 64 }
	for i := 0; i < 48; i++ {
		w := []float64{0.02, 0.1, 0.3, 0.7}[i%4]
		b := geom.Box{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
		for d := range b.Lo {
			b.Lo[d] = coord()
			b.Hi[d] = b.Lo[d] + w
		}
		boxes = append(boxes, b)
	}
	flat := geom.Box{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	copy(flat.Lo, at)
	copy(flat.Hi, at)
	flat.Lo[0], flat.Hi[0] = 0, 1
	whole := geom.Box{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	outside := geom.Box{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	for d := range whole.Hi {
		whole.Hi[d] = 1
		outside.Lo[d], outside.Hi[d] = 2, 3
	}
	boxes = append(boxes, flat, whole, outside)
	for i := 0; i < 60; i++ {
		c := make(geom.Point, dim)
		for d := range c {
			c[d] = coord()
		}
		centers = append(centers, c)
		radii = append(radii, []float64{0, 0.01, 0.05, 0.25, 0.6}[i%5])
	}
	centers = append(centers, at, at, at)
	radii = append(radii, 0, -1, math.NaN())
	return boxes, centers, radii
}

// cellsHash is an FNV-1a hash of the WalkCells preorder: every node's
// depth, size, sibling size, leaf flag and tight box.
func cellsHash(tree *Tree) uint64 {
	h := fnv.New64a()
	tree.WalkCells(func(c CellInfo) {
		leaf := uint64(0)
		if c.Leaf {
			leaf = 1
		}
		writeWords(h, uint64(c.Depth), uint64(c.Size), uint64(c.SiblingSize), leaf)
		for d := range c.Box.Lo {
			writeWords(h, math.Float64bits(c.Box.Lo[d]), math.Float64bits(c.Box.Hi[d]))
		}
	})
	return h.Sum64()
}

func writeWords(h interface{ Write([]byte) (int, error) }, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
}
