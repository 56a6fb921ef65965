package shard_test

// Cluster-level tests: the scatter/gather router over real Services behind
// real shard wire listeners on loopback TCP.
//
// The central property: a clustered answer is bit-identical to a single
// tree holding the union of the shards' points — for kNN including tie
// handling at equal distances (the canonical (dist2, id) order makes the
// answer a pure function of the point multiset), and for range reporting
// up to the canonical item order. The oracle tree is built with a
// different seed than the shards, so agreement cannot come from identical
// tree shapes.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

func unitBox() geom.Box {
	return geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})
}

// testShard is one in-process shard: a Service behind a wire listener.
type testShard struct {
	addr  string
	svc   *serve.Service
	ln    *serve.ShardListener
	store *persist.Store
	tree  *core.Tree
}

// startShard boots a shard on addr ("127.0.0.1:0" for any port). With a
// non-empty dir the shard is durable: persist.Open recovers whatever the
// directory holds (the restart path of the failure test).
func startShard(t *testing.T, dim int, seed int64, dir, addr string) *testShard {
	t.Helper()
	mach := pim.NewMachine(4, 1<<18)
	treeCfg := core.Config{Dim: dim, Seed: seed, LeafSize: 8}
	var (
		store *persist.Store
		tree  *core.Tree
	)
	if dir != "" {
		var err error
		store, tree, _, err = persist.Open(dir, persist.Options{Machine: mach, Tree: treeCfg})
		if err != nil {
			t.Fatalf("persist.Open(%s): %v", dir, err)
		}
	} else {
		tree = core.New(treeCfg, mach)
	}
	svc := serve.New(serve.Config{MaxBatch: 64, MaxLinger: time.Millisecond, Seed: seed, Persist: store}, tree)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return &testShard{
		addr:  ln.Addr().String(),
		svc:   svc,
		ln:    serve.NewShardListener(svc, ln, nil, nil),
		store: store,
		tree:  tree,
	}
}

func (s *testShard) stop() {
	_ = s.ln.Close()
	_ = s.svc.Close()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// tieHeavyItems builds a point set engineered for distance ties: a 20×20
// grid (any grid-aligned query sees many equidistant neighbors) with every
// seventh position duplicated under a second ID (a pure tie that only the
// ID order can break).
func tieHeavyItems() []core.Item {
	var items []core.Item
	id := int32(0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			p := geom.Point{float64(i) / 19, float64(j) / 19}
			items = append(items, core.Item{ID: id, P: p})
			id++
			if (i+j)%7 == 0 {
				items = append(items, core.Item{ID: id, P: p.Clone()})
				id++
			}
		}
	}
	return items
}

func oracleQueries(rng *rand.Rand) []geom.Point {
	var qs []geom.Point
	for i := 0; i < 20; i += 3 {
		// Grid-aligned (distance ties) and inter-grid midpoints.
		qs = append(qs,
			geom.Point{float64(i) / 19, float64(i) / 19},
			geom.Point{(float64(i) + 0.5) / 19, 0.5},
		)
	}
	// Outside the nominal bounds: ownership and pruning must still be exact.
	qs = append(qs, geom.Point{-0.2, 0.5}, geom.Point{1.3, 1.2})
	for i := 0; i < 8; i++ {
		qs = append(qs, geom.Point{rng.Float64(), rng.Float64()})
	}
	return qs
}

func oracleBoxes() []geom.Box {
	return []geom.Box{
		geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}),
		// Grid-aligned faces: boundary items must be reported exactly once.
		geom.NewBox(geom.Point{5.0 / 19, 5.0 / 19}, geom.Point{10.0 / 19, 10.0 / 19}),
		// Thin slivers crossing partition split planes.
		geom.NewBox(geom.Point{0.49, 0}, geom.Point{0.51, 1}),
		geom.NewBox(geom.Point{0, 0.49}, geom.Point{1, 0.51}),
		geom.NewBox(geom.Point{0.9, 0.9}, geom.Point{0.95, 0.95}),
	}
}

// TestClusterMatchesOracle: scatter/gather answers over 1, 3, and 8 shards
// are bit-identical to a single-tree oracle, before and after deletes.
func TestClusterMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const dim = 2
			part, err := shard.NewUniformPartition(dim, shards, unitBox())
			if err != nil {
				t.Fatal(err)
			}
			cluster := make([]*testShard, shards)
			addrs := make([]string, shards)
			for i := range cluster {
				cluster[i] = startShard(t, dim, int64(i+1), "", "127.0.0.1:0")
				defer cluster[i].stop()
				addrs[i] = cluster[i].addr
			}
			router, err := shard.NewRouter(part, addrs, shard.Config{
				Timeout:       5 * time.Second,
				ProbeInterval: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()

			ctx := context.Background()
			items := tieHeavyItems()
			if acked, err := router.BatchUpdate(ctx, false, items); err != nil || acked != len(items) {
				t.Fatalf("seeding: acked %d/%d, err %v", acked, len(items), err)
			}

			// The oracle: one tree, every item, a different structure seed.
			oracle := core.New(core.Config{Dim: dim, Seed: 99, LeafSize: 8}, pim.NewMachine(4, 1<<18))
			oracle.Build(append([]core.Item(nil), items...))

			rng := rand.New(rand.NewSource(17))
			queries := oracleQueries(rng)
			checkAgainstOracle(t, ctx, router, oracle, queries)

			// Pruning keeps a kNN's fanout near one shard: the nearest
			// cell's answer bounds the search, and a farther cell is asked
			// only when it could still hold a closer point, so all cells
			// but the nearest and at most one neighbour are pruned.
			const fanQueries = 200
			frng := rand.New(rand.NewSource(23))
			var queried, pruned int
			for i := 0; i < fanQueries; i++ {
				_, fo, err := router.KNN(ctx, geom.Point{frng.Float64(), frng.Float64()}, 1)
				if err != nil {
					t.Fatalf("fanout query %d: %v", i, err)
				}
				queried += fo.Queried
				pruned += fo.Pruned
			}
			meanQueried, meanPruned := float64(queried)/fanQueries, float64(pruned)/fanQueries
			if meanQueried > 1.25 || meanPruned < float64(shards-2) {
				t.Fatalf("mean kNN fanout: %.2f shards queried, %.2f cells pruned; want <= 1.25 queried and >= %d pruned",
					meanQueried, meanPruned, shards-2)
			}

			// Delete a third of the items through the router and re-verify:
			// the distributed answer tracks the mutated multiset exactly.
			var dels []core.Item
			for i, it := range items {
				if i%3 == 0 {
					dels = append(dels, it)
				}
			}
			if acked, err := router.BatchUpdate(ctx, true, dels); err != nil || acked != len(dels) {
				t.Fatalf("deleting: acked %d/%d, err %v", acked, len(dels), err)
			}
			oracle.BatchDelete(dels)
			checkAgainstOracle(t, ctx, router, oracle, queries)
		})
	}
}

func checkAgainstOracle(t *testing.T, ctx context.Context, router *shard.Router, oracle *core.Tree, queries []geom.Point) {
	t.Helper()
	for qi, q := range queries {
		for _, k := range []int{1, 4, 23, 999} {
			want := oracle.KNN([]geom.Point{q}, k)[0]
			got, _, err := router.KNN(ctx, q, k)
			if err != nil {
				t.Fatalf("q%d k=%d: %v", qi, k, err)
			}
			if len(got) != len(want) {
				t.Fatalf("q%d k=%d: %d results, oracle %d", qi, k, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Dist2 != want[i].Dist2 {
					t.Fatalf("q%d k=%d result %d: (id=%d dist2=%v), oracle (id=%d dist2=%v)",
						qi, k, i, got[i].ID, got[i].Dist2, want[i].ID, want[i].Dist2)
				}
			}
		}
	}
	for bi, box := range oracleBoxes() {
		want := canonicalItems(oracle.RangeReport([]geom.Box{box})[0])
		got, _, err := router.Range(ctx, box)
		if err != nil {
			t.Fatalf("box %d: %v", bi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("box %d: %d items, oracle %d", bi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || !got[i].P.Equal(want[i].P) {
				t.Fatalf("box %d item %d: id=%d %v, oracle id=%d %v",
					bi, i, got[i].ID, got[i].P, want[i].ID, want[i].P)
			}
		}
	}
}

// canonicalItems sorts items into the router's canonical merged order.
func canonicalItems(items []core.Item) []core.Item {
	out := append([]core.Item(nil), items...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && itemBefore(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func itemBefore(a, b core.Item) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	for d := range a.P {
		if a.P[d] != b.P[d] {
			return a.P[d] < b.P[d]
		}
	}
	return a.Priority < b.Priority
}

// TestClusterShardKillRestart: at replication factor 1 (single-copy
// cells, no failover possible) the router survives losing a durable
// shard mid-run — degraded (503-class errors, writes refused, never
// falsely acked) while the shard is down, exact again after it restarts
// on the same address, with zero acked updates lost. The replicated
// failover path is covered by TestClusterReplicatedFailover.
func TestClusterShardKillRestart(t *testing.T) {
	const (
		dim    = 2
		shards = 3
		victim = 1
	)
	part, err := shard.NewUniformPartition(dim, shards, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, shards)
	cluster := make([]*testShard, shards)
	addrs := make([]string, shards)
	for i := range cluster {
		dirs[i] = t.TempDir()
		cluster[i] = startShard(t, dim, int64(i+1), dirs[i], "127.0.0.1:0")
		addrs[i] = cluster[i].addr
	}
	defer func() {
		for _, s := range cluster {
			s.stop()
		}
	}()
	router, err := shard.NewRouter(part, addrs, shard.Config{
		Timeout:       500 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
		Replication:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Seed and track exactly what was acknowledged.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	acked := map[int32]core.Item{}
	perOwner := map[int][]core.Item{}
	var batch []core.Item
	for id := int32(0); id < 300; id++ {
		it := core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}}
		batch = append(batch, it)
	}
	if n, err := router.BatchUpdate(ctx, false, batch); err != nil || n != len(batch) {
		t.Fatalf("seed: acked %d/%d, err %v", n, len(batch), err)
	}
	for _, it := range batch {
		acked[it.ID] = it
		owner := part.Owner(it.P)
		perOwner[owner] = append(perOwner[owner], it)
	}
	if len(perOwner[victim]) == 0 || len(perOwner[0]) == 0 {
		t.Fatalf("test premise broken: owner distribution %v", ownerCounts(perOwner))
	}

	// Kill the victim (listener, service, store all down; data dir stays).
	cluster[victim].stop()
	waitFor(t, 10*time.Second, "victim marked unhealthy", func() bool {
		return !router.Status()[victim].Healthy
	})

	// Queries needing the victim's cell degrade loudly…
	victimPt := perOwner[victim][0].P
	if _, _, err := router.KNN(ctx, victimPt, 1); !errors.Is(err, shard.ErrDegraded) {
		t.Fatalf("kNN in dead cell: err = %v, want ErrDegraded", err)
	}
	// …writes owned by the dead shard are refused, never acked…
	rejected := core.Item{ID: 9999, P: victimPt.Clone()}
	if _, err := router.Insert(ctx, rejected); err == nil {
		t.Fatal("insert into dead shard was acked")
	}
	// …while queries provably outside the dead cell still answer exactly.
	alive := bestAlivePoint(part, perOwner[0], victim)
	if got, _, err := router.KNN(ctx, alive, 1); err != nil {
		t.Fatalf("kNN in healthy cell during outage: %v", err)
	} else if len(got) != 1 || got[0].Dist2 != 0 {
		t.Fatalf("kNN in healthy cell: got %v, want the queried item at dist 0", got)
	}

	// Restart the victim from its data directory on the same address.
	cluster[victim] = startShard(t, dim, int64(victim+1), dirs[victim], addrs[victim])
	waitFor(t, 10*time.Second, "victim reinstated", func() bool {
		return router.Status()[victim].Healthy
	})

	// Zero lost acked updates: the cluster holds exactly the acked set.
	items, _, err := router.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("full range after recovery: %v", err)
	}
	if len(items) != len(acked) {
		t.Fatalf("recovered cluster holds %d items, acked %d", len(items), len(acked))
	}
	for _, it := range items {
		want, ok := acked[it.ID]
		if !ok || !want.P.Equal(it.P) {
			t.Fatalf("recovered item %d/%v was never acked", it.ID, it.P)
		}
	}
	// And the failed insert really is absent.
	if _, ok := acked[rejected.ID]; ok {
		t.Fatal("bookkeeping bug: rejected insert tracked as acked")
	}
}

func ownerCounts(perOwner map[int][]core.Item) map[int]int {
	out := map[int]int{}
	for o, items := range perOwner {
		out[o] = len(items)
	}
	return out
}

// bestAlivePoint picks the shard-0 item farthest from the victim's cell, so
// a k=1 query there is provably unaffected by the dead shard (its own
// distance is 0, the victim cell strictly farther).
func bestAlivePoint(part *shard.Partition, candidates []core.Item, victim int) geom.Point {
	cell := part.Cell(victim)
	best := candidates[0].P
	bestD := cell.Dist2ToPoint(best)
	for _, it := range candidates[1:] {
		if d := cell.Dist2ToPoint(it.P); d > bestD {
			best, bestD = it.P, d
		}
	}
	return best
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
