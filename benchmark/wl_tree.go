package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pim"
	"pimkd/internal/pkdtree"
)

// env is what a pass runs under.
type env struct {
	seed   uint64
	sz     sizes
	tr     *tracer // nil: tracing off
	runDir string  // scratch directory for files the pass writes
}

// orderDependent reports whether a metered count of tree_batch depends on
// goroutine order and so is left out of the exact-count comparison. The
// kNN and range walks share core's contention tracker: an atomic counter per
// node decides which walkers reach a node before it is pulled to the CPU, the
// walkers run under parallel.For, and each walker's hop costs differently.
// The totals then differ by a few words in ten million between two runs of
// one seed (more at -quick sizes, where every batch contends). Rounds, PIM
// work and CPU work do not depend on which walker came first.
func orderDependent(key string) bool {
	phase, count, _ := strings.Cut(key, ".")
	if phase == "build" || phase == "update" {
		return false
	}
	return count == "comm_words" || count == "comm_time" || count == "pim_time"
}

// addPimCounts stores a pim.Stats delta in the metered-count map.
func addPimCounts(dst map[string]int64, prefix string, d pim.Stats) {
	dst[prefix+".rounds"] = d.Rounds
	dst[prefix+".comm_words"] = d.Communication
	dst[prefix+".comm_time"] = d.CommTime
	dst[prefix+".pim_work"] = d.PIMWork
	dst[prefix+".pim_time"] = d.PIMTime
	dst[prefix+".cpu_work"] = d.CPUWork
}

func (r *passResult) setPimTotals(d pim.Stats) {
	r.set("pim.rounds", float64(d.Rounds), 0)
	r.set("pim.comm_words", float64(d.Communication), 0)
	r.set("pim.comm_time", float64(d.CommTime), 0)
	r.set("pim.pim_work", float64(d.PIMWork), 0)
	r.set("pim.pim_time", float64(d.PIMTime), 0)
	r.set("pim.cpu_work", float64(d.CPUWork), 0)
}

// commImbalance is comm_time·P/comm_words: 1 when every module moved the
// same number of words in every round.
func commImbalance(d pim.Stats) float64 {
	if d.Communication == 0 {
		return 0
	}
	return float64(d.CommTime) * modulesP / float64(d.Communication)
}

// treePhase accumulates one tree_batch phase.
type treePhase struct {
	name    string
	walls   []int64 // per call
	selfs   []int64 // per call, traced pass only
	rounds  int64   // round wall, traced pass only
	nrounds int
	cost    pim.Stats
	mallocs uint64
	ops     int64
}

func (p *treePhase) total() int64 { return sumInt(p.walls) }

// runTreeBatch is the tree_batch workload: the paper's Table-1 operations
// through core.Tree with one sequential caller, so core and pim do all the
// work and the metered counts repeat exactly.
func runTreeBatch(e *env) *passResult {
	res := newPassResult("tree_batch", e.tr != nil)
	res.PimCounts = map[string]int64{}
	cfg := treeConfig()

	var (
		in     *inputs
		items  []core.Item
		mach   *pim.Machine
		tree   *core.Tree
		setups []float64
	)
	for s := 0; s < e.sz.setups; s++ {
		tree, mach = nil, nil
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		t0 := time.Now()
		in = newInputs(e.seed, e.sz.n)
		items = in.items()
		mach = pim.NewMachine(modulesP, cacheWords)
		tree = core.New(cfg, mach)
		tree.Build(items)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", medianFloat(setups), len(setups))
	res.set("heap_live_mb", heapLiveMB(), 1)
	rl := e.tr.observe(mach, 1)

	// timed runs one Tree call, outside of which inputs are generated and
	// answers checked.
	timed := func(ph *treePhase, call func()) {
		t0 := time.Now()
		call()
		wall := time.Since(t0)
		ph.walls = append(ph.walls, int64(wall))
		if e.tr != nil {
			self, rw, n := e.tr.callSpan("core."+ph.name, t0, wall, rl)
			ph.selfs = append(ph.selfs, self)
			ph.rounds += rw
			ph.nrounds += n
		}
	}
	// around brackets a stretch of one phase with the metered counts and the
	// malloc counter.
	around := func(ph *treePhase, body func()) {
		pre, h0 := mach.Stats(), takeHost()
		body()
		ph.cost = ph.cost.Add(mach.Stats().Sub(pre))
		ph.mallocs += takeHost().mallocs - h0.mallocs
	}
	build := &treePhase{name: "build"}
	knn := &treePhase{name: "knn"}
	skew := &treePhase{name: "knn_skew"}
	rng := &treePhase{name: "range"}
	churn := &treePhase{name: "update"}
	phases := []*treePhase{build, knn, skew, rng, churn}

	// The phases run interleaved, in blocks of one build and a share of
	// every other phase, so each phase samples the machine across the whole
	// run: the reference box's speed wanders by 10 % over tens of seconds, and
	// a phase measured in one stretch inherits whatever its stretch got.
	blocks := e.sz.count(treeSizes.builds, 3)
	perBlock := func(perSecond float64, min int) int {
		return (e.sz.count(perSecond, min) + blocks - 1) / blocks
	}
	nKNN, nSkew, nRange, nChurn := perBlock(treeSizes.knn, 10), perBlock(treeSizes.skew, 10), perBlock(treeSizes.rng, 10), perBlock(treeSizes.churn, 5)
	// sampled picks the batches whose answers go to the oracle: the first,
	// a middle and the last of the run.
	sampled := func(block, j, per int) bool {
		return j == 0 && (block == 0 || block == blocks/2) || block == blocks-1 && j == per-1
	}
	knnBlock := func(ph *treePhase, gen func(b, size int) []geom.Point, block, per int) {
		around(ph, func() {
			for j := 0; j < per; j++ {
				qs := gen(block*per+j, knnBatch)
				var got [][]heapx.Candidate
				timed(ph, func() { got = tree.KNN(qs, knnK) })
				ph.ops += int64(len(qs))
				if sampled(block, j, per) {
					for i := 0; i < len(qs); i += len(qs) / 16 {
						nbs := make([]neighbour, len(got[i]))
						for j, c := range got[i] {
							nbs[j] = neighbour{id: c.ID, d2: c.Dist2}
						}
						res.oracleFail(in.checkKNNExact(qs[i], nbs, false))
						res.OracleChecks++
					}
				}
			}
		})
	}

	hostStart := takeHost()
	for block := 0; block < blocks; block++ {
		around(build, func() {
			t := core.New(cfg, mach)
			timed(build, func() { t.Build(items) })
			build.ops += int64(in.n)
			if t.Size() != in.n {
				res.oracleFail(fmt.Errorf("build: tree holds %d items, want %d", t.Size(), in.n))
			}
			res.OracleChecks++
		})
		knnBlock(knn, in.knnQueries, block, nKNN)
		knnBlock(skew, in.hotQueries, block, nSkew)
		around(rng, func() {
			for j := 0; j < nRange; j++ {
				boxes := in.rangeBoxes(block*nRange+j, rangeBatch)
				var got [][]core.Item
				timed(rng, func() { got = tree.RangeReport(boxes) })
				rng.ops += int64(len(boxes))
				if sampled(block, j, nRange) {
					for i := 0; i < len(boxes); i += len(boxes) / 16 {
						res.oracleFail(in.checkRange(boxes[i], got[i], in.n, nil))
						res.OracleChecks++
					}
				}
			}
		})
		// Churn is scored on its total wall: partial reconstructions are the
		// point, and a median of round walls would hide them.
		around(churn, func() {
			for j := 0; j < nChurn; j++ {
				fresh := in.churnItems(block*nChurn+j, churnBatch)
				timed(churn, func() {
					tree.BatchInsert(fresh)
					tree.BatchDelete(fresh)
				})
				churn.ops += int64(2 * len(fresh))
			}
		})
	}
	hostEnd := takeHost()

	// After churn the tree must be sound and hold exactly the initial set.
	if err := tree.CheckInvariants(); err != nil {
		res.oracleFail(fmt.Errorf("CheckInvariants after churn: %w", err))
	}
	want := make(map[int32]geom.Point, in.n)
	for i := 0; i < in.n; i++ {
		want[int32(i)] = in.point(i)
	}
	res.oracleFail(checkStoredSet("tree after churn", tree.Items(), want))
	res.OracleChecks += 2

	var total pim.Stats
	var ops, opWall, callWall, roundWall int64
	var nrounds int
	for _, ph := range phases {
		addPimCounts(res.PimCounts, ph.name, ph.cost)
		total = total.Add(ph.cost)
		ops += ph.ops
		callWall += ph.total()
		roundWall += ph.rounds
		nrounds += ph.nrounds
		if ph != build {
			opWall += ph.total()
		}
		res.Phases = append(res.Phases, phaseCount{Name: ph.name, Attempted: ph.ops, Succeeded: ph.ops, WallS: float64(ph.total()) / 1e9})
	}
	res.Attempted = ops

	rate := func(perCall int, ph *treePhase) float64 {
		return float64(perCall) / (float64(medianInt(ph.walls)) / 1e9)
	}
	res.set("build_pts_per_s", rate(in.n, build), len(build.walls))
	res.set("knn_q_per_s", rate(knnBatch, knn), len(knn.walls))
	res.set("knn_skew_q_per_s", rate(knnBatch, skew), len(skew.walls))
	res.set("range_q_per_s", rate(rangeBatch, rng), len(rng.walls))
	res.set("update_ops_per_s", float64(churn.ops)/(float64(churn.total())/1e9), len(churn.walls))
	// The serving names, read for a library caller: operations per second
	// over the four operation phases, and how long one read call takes —
	// the median and the p99 call wall of each of the three kinds of read
	// call, averaged over the kinds. (Pooling the calls instead puts the
	// median on the border between two kinds, where it jumps.)
	res.set("capacity_rps", float64(ops-build.ops)/(float64(opWall)/1e9), int(ops-build.ops))
	var p50, p99 float64
	for _, ph := range []*treePhase{knn, skew, rng} {
		sorted := sortedCopy(ph.walls)
		p50 += ms(quantile(sorted, 0.5)) / 3
		p99 += ms(quantile(sorted, 0.99)) / 3
	}
	res.set("read_p50_ms", p50, len(knn.walls))
	res.set("read_p99_ms", p99, len(knn.walls))
	res.set("failed_share", 0, int(ops))
	res.hostMetrics(hostStart, hostEnd, ops)

	res.setPimTotals(total)
	res.set("pim.comm_imbalance", commImbalance(knn.cost), 0)
	res.set("pim.comm_imbalance_skew", commImbalance(skew.cost), 0)
	res.set("core.words_per_knn_q", float64(knn.cost.Communication)/float64(knn.ops), int(knn.ops))
	res.set("core.words_per_update_op", float64(churn.cost.Communication)/float64(churn.ops), int(churn.ops))
	res.set("core.rounds_per_knn_batch", float64(knn.cost.Rounds)/float64(len(knn.walls)), len(knn.walls))
	res.set("core.mallocs_per_build_pt", float64(build.mallocs)/float64(build.ops), int(build.ops))
	res.set("core.mallocs_per_knn_q", float64(knn.mallocs)/float64(knn.ops), int(knn.ops))
	res.set("core.mallocs_per_update_op", float64(churn.mallocs)/float64(churn.ops), int(churn.ops))
	res.set("core.height", float64(tree.Height()), 0)
	res.set("core.space_words_per_pt", float64(tree.SpaceWords())/float64(tree.Size()), 0)

	// Another process holding the CPU shows as CPU time far below wall on a
	// workload that never waits.
	if cpu, wall := hostEnd.cpu-hostStart.cpu, hostEnd.at.Sub(hostStart.at); cpu > 0 && cpu < wall/2 {
		res.invalidate(fmt.Sprintf("process got %.2fs of CPU in %.2fs of wall: another process held the cores", cpu.Seconds(), wall.Seconds()))
	}

	if e.tr != nil {
		res.set("core.build_self_ms", ms(medianInt(build.selfs)), len(build.selfs))
		res.set("core.knn_self_ms", ms(medianInt(knn.selfs)), len(knn.selfs))
		res.set("core.range_self_ms", ms(medianInt(rng.selfs)), len(rng.selfs))
		res.set("core.update_self_ms", ms(medianInt(churn.selfs)), len(churn.selfs))
		res.set("pim.round_wall_ms", ms(roundWall), nrounds)
		res.set("pim.round_wall_share", float64(roundWall)/float64(callWall), nrounds)
		res.set("pim.round_overhead_us", us(roundWall)/float64(nrounds), nrounds)
		// Budget of a kNN batch call: what the simulator's rounds cover and
		// what core does outside them.
		call := float64(medianInt(knn.walls))
		self := float64(medianInt(knn.selfs))
		res.Budget = []budgetRow{
			{Layer: "core self (knn call)", MS: self / 1e6, Share: self / call},
			{Layer: "pim rounds", MS: (call - self) / 1e6, Share: (call - self) / call},
		}
		mach.SetObserver(nil)
		runYardstick(e, res, in)
	}
	return res
}

// runYardstick times internal/pkdtree, the shared-memory kd-tree, on the
// same points and queries, sequentially. It moves nothing end to end; the
// core/pkdtree ratio says how much of build_pts_per_s and knn_q_per_s is
// simulator and PIM bookkeeping rather than kd work.
func runYardstick(e *env, res *passResult, in *inputs) {
	pk := make([]pkdtree.Item, in.n)
	for i := range pk {
		pk[i] = pkdtree.Item{P: in.point(i), ID: int32(i)}
	}
	var walls []int64
	var t *pkdtree.Tree
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		t = pkdtree.New(pkdtree.Config{Dim: dim, LeafSize: leafSize, Seed: programSeed}, pk)
		walls = append(walls, int64(time.Since(t0)))
	}
	res.set("pkdtree.build_pts_per_s", float64(in.n)/(float64(medianInt(walls))/1e9), len(walls))
	walls = walls[:0]
	batches := e.sz.count(treeSizes.knn, 10) / 4
	if batches < 3 {
		batches = 3
	}
	for b := 0; b < batches; b++ {
		qs := in.knnQueries(b, knnBatch)
		t0 := time.Now()
		for _, q := range qs {
			t.KNN(q, knnK)
		}
		walls = append(walls, int64(time.Since(t0)))
	}
	res.set("pkdtree.knn_q_per_s", knnBatch/(float64(medianInt(walls))/1e9), len(walls))
}
