package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// The golden traversal table pins what every irregular traversal meters and
// answers on two 4096-query batches: a uniform one and a 1e-4 hot spot whose
// queries all backtrack through the same few nodes, so the push-pull
// contention rule pulls nodes to the CPU mid-batch. At GOMAXPROCS=1 the
// batch runs sequentially and its metering is exact, so the pim.Stats delta,
// the walker counters and an FNV-1a hash of the answers are compared against
// literal values. At GOMAXPROCS=2 the walkers race for the contention
// counters, so only the answers are compared.

const (
	goldenN       = 1 << 14
	goldenQueries = 4096
	goldenP       = 64
	goldenRadius  = 0.01
	goldenSide    = 0.02
)

type goldenFixture struct {
	tree  *Tree
	mach  *pim.Machine
	batch map[string][]geom.Point
}

func newGoldenFixture() *goldenFixture {
	mach := pim.NewMachine(goldenP, 1<<22)
	tree := New(Config{Dim: 2, Seed: 29}, mach)
	pts := workload.Uniform(goldenN, 2, 291)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{P: p, ID: int32(i), Priority: float64(i % 97)}
	}
	tree.Build(items)
	return &goldenFixture{tree: tree, mach: mach, batch: map[string][]geom.Point{
		"uniform": workload.Uniform(goldenQueries, 2, 292),
		"hot":     workload.Hotspot(goldenQueries, 2, 1e-4, 293),
	}}
}

// fnv is a 64-bit FNV-1a accumulator over answer fields.
type fnv uint64

func newFNV() fnv { return 1469598103934665603 }

func (h *fnv) mix(v uint64) { *h = (*h ^ fnv(v)) * 1099511628211 }

func (h *fnv) items(its []Item) {
	h.mix(uint64(len(its)))
	for _, it := range its {
		h.mix(uint64(it.ID))
	}
}

func goldenItems(qs []geom.Point) []Item {
	out := make([]Item, len(qs))
	for i, q := range qs {
		out[i] = Item{P: q, ID: int32(goldenN + i), Priority: float64(i % 89)}
	}
	return out
}

func goldenBoxes(qs []geom.Point) []geom.Box {
	out := make([]geom.Box, len(qs))
	for i, q := range qs {
		out[i] = geom.NewBox(
			geom.Point{q[0] - goldenSide/2, q[1] - goldenSide/2},
			geom.Point{q[0] + goldenSide/2, q[1] + goldenSide/2})
	}
	return out
}

func hashKNN(res [][]heapx.Candidate) uint64 {
	h := newFNV()
	for _, r := range res {
		h.mix(uint64(len(r)))
		for _, c := range r {
			h.mix(uint64(c.ID))
			h.mix(math.Float64bits(c.Dist2))
		}
	}
	return uint64(h)
}

// goldenOps runs one traversal over a query batch and returns its answer
// hash.
var goldenOps = []struct {
	name string
	run  func(t *Tree, qs []geom.Point) uint64
}{
	{"knn", func(t *Tree, qs []geom.Point) uint64 { return hashKNN(t.KNN(qs, 8)) }},
	{"ann", func(t *Tree, qs []geom.Point) uint64 { return hashKNN(t.ANN(qs, 8, 0.5)) }},
	{"range-report", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, r := range t.RangeReport(goldenBoxes(qs)) {
			h.items(r)
		}
		return uint64(h)
	}},
	{"range-count", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, c := range t.RangeCount(goldenBoxes(qs)) {
			h.mix(uint64(c))
		}
		return uint64(h)
	}},
	{"radius-count", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, c := range t.RadiusCount(qs, goldenRadius) {
			h.mix(uint64(c))
		}
		return uint64(h)
	}},
	{"radius-report", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, r := range t.RadiusReport(qs, goldenRadius) {
			h.items(r)
		}
		return uint64(h)
	}},
	{"range-aggregate", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, a := range t.RangeAggregate(goldenBoxes(qs)) {
			h.mix(uint64(a.Count))
			for _, c := range a.Centroid() {
				h.mix(math.Float64bits(c))
			}
		}
		return uint64(h)
	}},
	{"probe-join", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, r := range t.ProbeJoin(goldenItems(qs), goldenRadius) {
			h.items(r)
		}
		return uint64(h)
	}},
	{"dependent", func(t *Tree, qs []geom.Point) uint64 {
		h := newFNV()
		for _, d := range t.DependentPoints(goldenItems(qs)) {
			h.mix(uint64(d.ID))
			h.mix(math.Float64bits(d.Dist))
		}
		return uint64(h)
	}},
	{"join-trees", func(t *Tree, qs []geom.Point) uint64 {
		probe := New(Config{Dim: 2, Seed: 31}, pim.NewMachine(goldenP, 1<<22))
		probe.Build(goldenItems(qs))
		h := newFNV()
		pairs := t.JoinTrees(probe, goldenRadius)
		h.mix(uint64(len(pairs)))
		for _, p := range pairs {
			h.mix(uint64(p.Probe.ID))
			h.mix(uint64(p.Match.ID))
		}
		return uint64(h)
	}},
}

type goldenRow struct {
	op, batch    string
	stats, walks string
	hash         uint64
}

// goldenWant holds the expected values, in goldenOps × {uniform, hot} order.
var goldenWant = []goldenRow{
	{"knn", "uniform", "cpuWork=8466 cpuSpan=41 pimWork=281566 pimTime=6057 comm=157577 commTime=3640 rounds=5", "hops=23820 nodes=100191 leaves=23136 reported=32768", 0xf387ce9adf0ffada},
	{"knn", "hot", "cpuWork=199994 cpuSpan=21 pimWork=82634 pimTime=1604 comm=53786 commTime=1006 rounds=6", "hops=8256 nodes=102400 leaves=20480 reported=32768", 0xb204a3ac12b46ba7},
	{"ann", "uniform", "cpuWork=2815 cpuSpan=41 pimWork=231941 pimTime=5069 comm=124075 commTime=3082 rounds=5", "hops=17538 nodes=83706 leaves=16596 reported=32768", 0x6af1894206af7efa},
	{"ann", "hot", "cpuWork=199994 cpuSpan=21 pimWork=82634 pimTime=1604 comm=53786 commTime=1006 rounds=6", "hops=8256 nodes=102400 leaves=20480 reported=32768", 0xb204a3ac12b46ba7},
	{"range-report", "uniform", "cpuWork=2752 cpuSpan=0 pimWork=187354 pimTime=4541 comm=75988 commTime=1696 rounds=1", "hops=17557 nodes=87124 leaves=17062 reported=26289", 0x9fa3643605494a39},
	{"range-report", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=15417", 0x4140f55f7f823f67},
	{"range-count", "uniform", "cpuWork=2752 cpuSpan=0 pimWork=186950 pimTime=4531 comm=75988 commTime=1696 rounds=1", "hops=17557 nodes=87124 leaves=16978 reported=26289", 0xa13ba3ab89022eec},
	{"range-count", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=15417", 0x86d818fffd8578e8},
	{"radius-count", "uniform", "cpuWork=2377 cpuSpan=0 pimWork=180433 pimTime=4422 comm=72368 commTime=1648 rounds=1", "hops=16839 nodes=85391 leaves=16120 reported=20543", 0x306f6fdaaecd5ff0},
	{"radius-count", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=12288", 0x9b3585ba7e205383},
	{"radius-report", "uniform", "cpuWork=2377 cpuSpan=0 pimWork=180469 pimTime=4422 comm=72368 commTime=1648 rounds=1", "hops=16839 nodes=85391 leaves=16128 reported=20543", 0xfde207e4a8663b35},
	{"radius-report", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=12288", 0x2a37b4983866e383},
	{"range-aggregate", "uniform", "cpuWork=2752 cpuSpan=0 pimWork=187354 pimTime=4541 comm=75988 commTime=1696 rounds=1", "hops=17557 nodes=87124 leaves=17062 reported=26289", 0x5b871c599afa5c38},
	{"range-aggregate", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=15417", 0xf28c351b653a71ba},
	{"probe-join", "uniform", "cpuWork=2377 cpuSpan=0 pimWork=180469 pimTime=4422 comm=72368 commTime=1648 rounds=1", "hops=16839 nodes=85391 leaves=16128 reported=20543", 0x4cef8cb44c90b62f},
	{"probe-join", "hot", "cpuWork=138201 cpuSpan=0 pimWork=49704 pimTime=1034 comm=16856 commTime=336 rounds=1", "hops=4166 nodes=96370 leaves=15417 reported=12288", 0xce40939dd5f20383},
	{"dependent", "uniform", "cpuWork=1410 cpuSpan=41 pimWork=185993 pimTime=4160 comm=94429 commTime=2420 rounds=5", "hops=10687 nodes=71343 leaves=10654 reported=4096", 0x487dc777e19710e0},
	{"dependent", "hot", "cpuWork=71482 cpuSpan=21 pimWork=70448 pimTime=1438 comm=41642 commTime=778 rounds=6", "hops=5245 nodes=58352 leaves=5246 reported=4096", 0xab94259afeb8547d},
	{"join-trees", "uniform", "cpuWork=0 cpuSpan=0 pimWork=418059 pimTime=12573 comm=165856 commTime=4550 rounds=1", "hops=8489 nodes=24735 leaves=11003 reported=20543", 0x8364a1b93c9d0232},
	{"join-trees", "hot", "cpuWork=197045 cpuSpan=0 pimWork=249311 pimTime=10599 comm=108468 commTime=3920 rounds=1", "hops=5994 nodes=26071 leaves=11237 reported=12288", 0xe996d79093c14799},
}

func TestTraversalGolden(t *testing.T) {
	if len(goldenWant) != 2*len(goldenOps) {
		t.Fatalf("golden table has %d rows for %d ops", len(goldenWant), len(goldenOps))
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	f := newGoldenFixture()
	var got []goldenRow
	for _, op := range goldenOps {
		for _, b := range []string{"uniform", "hot"} {
			pre, preOps := f.mach.Stats(), f.tree.OpStats
			h := op.run(f.tree, f.batch[b])
			ops := f.tree.OpStats
			walks := fmt.Sprintf("hops=%d nodes=%d leaves=%d reported=%d",
				ops.Hops-preOps.Hops, ops.NodesVisited-preOps.NodesVisited,
				ops.LeavesTouched-preOps.LeavesTouched, ops.Reported-preOps.Reported)
			got = append(got, goldenRow{op.name, b, f.mach.Stats().Sub(pre).String(), walks, h})
		}
	}
	for i, r := range got {
		if w := goldenWant[i]; r != w {
			t.Errorf("%s/%s at GOMAXPROCS=1:\n  got  %s | %s | %#x\n  want %s | %s | %#x",
				r.op, r.batch, r.stats, r.walks, r.hash, w.stats, w.walks, w.hash)
		}
	}

	runtime.GOMAXPROCS(2)
	f = newGoldenFixture()
	i := 0
	for _, op := range goldenOps {
		for _, b := range []string{"uniform", "hot"} {
			if h := op.run(f.tree, f.batch[b]); h != goldenWant[i].hash {
				t.Errorf("%s/%s at GOMAXPROCS=2: answer hash %#x, want %#x", op.name, b, h, goldenWant[i].hash)
			}
			i++
		}
	}
}

// TestTraversalScratchScales guards the batch path against allocating in
// proportion to the tree: the bytes a 16-query KNN batch and an 8-box
// RangeReport batch allocate may grow by at most 1.25× from n = 2^12 to
// n = 2^16. Boxes shrink with n so they report about 16 points at either
// size; the per-batch answers stay the same size.
func TestTraversalScratchScales(t *testing.T) {
	const (
		queries = 16
		boxes   = 8
		iters   = 40
	)
	perBatch := func(n int) (knn, rng float64) {
		mach := pim.NewMachine(goldenP, 1<<22)
		tree := New(Config{Dim: 2, Seed: 32}, mach)
		pts := workload.Uniform(n, 2, 321)
		items := make([]Item, n)
		for i, p := range pts {
			items[i] = Item{P: p, ID: int32(i)}
		}
		tree.Build(items)
		side := math.Sqrt(16 / float64(n))
		qs := workload.Uniform(queries*iters, 2, 322)
		bs := make([]geom.Box, boxes*iters)
		for i, q := range workload.Uniform(boxes*iters, 2, 323) {
			bs[i] = geom.NewBox(q, geom.Point{q[0] + side, q[1] + side})
		}
		measure := func(batch func(i int)) float64 {
			for i := 0; i < 4; i++ { // warm-up: the first batches size the scratch
				batch(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				batch(i)
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / iters
		}
		knn = measure(func(i int) { tree.KNN(qs[i*queries:(i+1)*queries], 4) })
		rng = measure(func(i int) { tree.RangeReport(bs[i*boxes : (i+1)*boxes]) })
		return knn, rng
	}
	smallKNN, smallRange := perBatch(1 << 12)
	bigKNN, bigRange := perBatch(1 << 16)
	for _, c := range []struct {
		name       string
		small, big float64
	}{{"KNN", smallKNN, bigKNN}, {"RangeReport", smallRange, bigRange}} {
		t.Logf("%s batch: %.0f B at n=2^12, %.0f B at n=2^16", c.name, c.small, c.big)
		if c.big > 1.25*c.small {
			t.Errorf("%s batch allocates %.0f B at n=2^16 against %.0f B at n=2^12: more than 1.25×", c.name, c.big, c.small)
		}
	}
}

// The golden update table pins what the update path meters: the pim.Stats
// delta of each of four steps on n = 2^14 points at P = 64 and
// GOMAXPROCS = 1, and an FNV-1a hash of the cumulative ModuleLoads vectors
// after it. The narrow insert fires Group-0 counter writes, which charge
// every module; the clustered insert forces one rebuild above the
// distributed-construction threshold, which spreads its build work over
// every module and broadcasts the new Group-0 nodes.
var updateGoldenWant = []struct {
	step, stats string
	loads       uint64
}{
	{"build", "cpuWork=134411 cpuSpan=64 pimWork=104389 pimTime=2555 comm=613016 commTime=11446 rounds=2", 0xedc58c3217018184},
	{"narrow-insert", "cpuWork=0 cpuSpan=50 pimWork=33196 pimTime=707 comm=54006 commTime=1222 rounds=4", 0x837f6d800cf71372},
	{"delete", "cpuWork=0 cpuSpan=56 pimWork=132213 pimTime=2313 comm=145448 commTime=2895 rounds=4", 0x759440d1cdb03431},
	{"rebuild", "cpuWork=100451 cpuSpan=49 pimWork=209924 pimTime=7644 comm=323606 commTime=21616 rounds=6", 0xcdc2d3333bd9a407},
}

func hashLoads(work, comm []int64) uint64 {
	h := newFNV()
	for i := range work {
		h.mix(uint64(work[i]))
		h.mix(uint64(comm[i]))
	}
	return uint64(h)
}

func TestUpdateGolden(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	mach := pim.NewMachine(goldenP, 1<<22)
	tree := New(Config{Dim: 2, Seed: 37}, mach)
	items := func(pts []geom.Point, base int) []Item {
		out := make([]Item, len(pts))
		for i, p := range pts {
			out[i] = Item{P: p, ID: int32(base + i)}
		}
		return out
	}
	built := items(workload.Uniform(goldenN, 2, 371), 0)
	// group0 reads every live Group-0 counter; one that changed fired a
	// Group-0 counter write.
	group0 := func() map[NodeID]float64 {
		vals := map[NodeID]float64{}
		for id := range tree.nodes {
			if nd := &tree.nodes[id]; !nd.dead && nd.group == 0 {
				vals[NodeID(id)] = nd.count.Value()
			}
		}
		return vals
	}
	steps := []func(){
		func() { tree.Build(built) },
		func() {
			pre := group0()
			tree.BatchInsert(items(workload.Uniform(256, 2, 372), goldenN))
			fired := 0
			for id, v := range pre {
				if nd := tree.nd(id); !nd.dead && nd.count.Value() != v {
					fired++
				}
			}
			if fired == 0 {
				t.Errorf("narrow-insert: no Group-0 counter write fired")
			}
		},
		func() { tree.BatchDelete(built[:1024]) },
		func() {
			pre := tree.OpStats
			tree.BatchInsert(items(workload.Hotspot(4096, 2, 1e-3, 373), 2*goldenN))
			threshold := int64(max(1024, 4*goldenP*tree.cfg.LeafSize))
			if n, pts := tree.OpStats.Rebuilds-pre.Rebuilds, tree.OpStats.RebuiltPoints-pre.RebuiltPoints; n != 1 || pts <= threshold {
				t.Errorf("rebuild: %d rebuilds of %d points, want one above %d", n, pts, threshold)
			}
		},
	}
	for i, run := range steps {
		pre := mach.Stats()
		run()
		w := updateGoldenWant[i]
		stats, loads := mach.Stats().Sub(pre).String(), hashLoads(mach.ModuleLoads())
		if stats != w.stats || loads != w.loads {
			t.Errorf("%s:\n  got  %s | loads %#x\n  want %s | loads %#x", w.step, stats, loads, w.stats, w.loads)
		}
	}
}
