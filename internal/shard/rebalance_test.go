package shard_test

// Rebalancer cluster tests: a live split+migration must keep every read
// bit-identical to a single-tree oracle over the acked write set — during
// the cut transfer, during the commit window, and after the epoch flip —
// while concurrent writers churn the moving cell. And a torn migration
// stage (dropped conn, short page stream) must apply nothing: commit is
// the only frame that touches the destination service.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
)

// retryMigrating runs op, retrying while it returns ErrMigrating (the
// commit-window bounce a well-behaved client absorbs via Retry-After).
func retryMigrating(op func() error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := op()
		if !errors.Is(err, shard.ErrMigrating) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// shardLoadRatio computes worst-shard-load / mean-load the way the planner
// does: a shard's load is the sum of its hosted cells' counts.
func shardLoadRatio(counts []shard.CellCount, cells []shard.CellStatus, shards int) float64 {
	loads := make([]uint64, shards)
	var total uint64
	for _, cc := range counts {
		total += cc.Count
		for _, rep := range cells[cc.Cell].Replicas {
			loads[rep.Shard] += cc.Count
		}
	}
	if total == 0 {
		return 0
	}
	var worst uint64
	var copies uint64
	for _, l := range loads {
		if l > worst {
			worst = l
		}
		copies += l
	}
	mean := float64(copies) / float64(shards)
	return float64(worst) / mean
}

// TestClusterMigrationOracle: hot-spot load on one cell triggers a split
// and live migration; throughout — staging, commit window, epoch flip,
// post-flip purge — kNN, range, and join stay bit-identical to a
// single-tree oracle over exactly the acked writes, under concurrent
// insert/delete churn. Run with -race: the layout swap, ledger, and
// commit gate are the contended state.
func TestClusterMigrationOracle(t *testing.T) {
	const (
		dim    = 2
		shards = 4
	)
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
		Replication:   2,
		// RebalanceInterval stays 0: the test drives RebalanceOnce itself.
		RebalanceThreshold:  1.5,
		MigratePageSize:     64,
		MigratePageInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	// Hot spot: 1200 points in [0, 0.2]^2 (one cell), 50 per cell elsewhere.
	rng := rand.New(rand.NewSource(31))
	model := map[int32]core.Item{}
	var seedItems []core.Item
	nextID := int32(0)
	for i := 0; i < 1200; i++ {
		it := core.Item{ID: nextID, P: geom.Point{rng.Float64() * 0.2, rng.Float64() * 0.2}}
		nextID++
		seedItems = append(seedItems, it)
	}
	for i := 0; i < 150; i++ {
		it := core.Item{ID: nextID, P: geom.Point{rng.Float64(), rng.Float64()}}
		nextID++
		seedItems = append(seedItems, it)
	}
	if n, err := router.BatchUpdate(ctx, false, seedItems); err != nil || n != len(seedItems) {
		t.Fatalf("seed: acked %d/%d, err %v", n, len(seedItems), err)
	}
	for _, it := range seedItems {
		model[it.ID] = it
	}
	before := shardLoadRatio(router.CellCounts(ctx), router.Cells(), shards)
	if before <= 1.5 {
		t.Fatalf("test premise broken: pre-migration drift ratio %.2f not past threshold", before)
	}

	// churnMu freezes the acked set for a comparison round: writers hold the
	// read half across one full write (router ack + model update), the
	// oracle check holds the write half, so every comparison sees a point
	// set no write is mid-flight on — while writes still race the
	// migration's pages, ledger, and commit gate between rounds.
	var churnMu sync.RWMutex
	var modelMu sync.Mutex
	inflight := map[int32]bool{}
	var idGen atomic.Int32
	idGen.Store(100000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				churnMu.RLock()
				if wrng.Intn(3) != 0 {
					p := geom.Point{wrng.Float64(), wrng.Float64()}
					if wrng.Intn(2) == 0 {
						p = geom.Point{wrng.Float64() * 0.2, wrng.Float64() * 0.2}
					}
					it := core.Item{ID: idGen.Add(1), P: p}
					if err := retryMigrating(func() error {
						_, err := router.Insert(ctx, it)
						return err
					}); err != nil {
						t.Errorf("churn insert %d: %v", it.ID, err)
					} else {
						modelMu.Lock()
						model[it.ID] = it
						modelMu.Unlock()
					}
				} else {
					var victim core.Item
					found := false
					modelMu.Lock()
					probes := 0
					for id, it := range model {
						if probes++; probes > 10 {
							break
						}
						if !inflight[id] {
							victim, found = it, true
							inflight[id] = true
							break
						}
					}
					modelMu.Unlock()
					if found {
						if err := retryMigrating(func() error {
							_, err := router.Delete(ctx, victim)
							return err
						}); err != nil {
							t.Errorf("churn delete %d: %v", victim.ID, err)
							modelMu.Lock()
							delete(inflight, victim.ID)
							modelMu.Unlock()
						} else {
							modelMu.Lock()
							delete(model, victim.ID)
							delete(inflight, victim.ID)
							modelMu.Unlock()
						}
					}
				}
				churnMu.RUnlock()
				time.Sleep(500 * time.Microsecond)
			}
		}(int64(41 + w))
	}

	// compareRound: freeze the acked set, rebuild the oracle tree from it
	// (a different structure seed than any shard), and demand bit-identical
	// kNN, range, and join answers from the cluster.
	queries := []geom.Point{{0.05, 0.05}, {0.18, 0.11}, {0.5, 0.5}, {0.85, 0.3}}
	boxes := []geom.Box{
		geom.NewBox(geom.Point{0, 0}, geom.Point{0.22, 0.22}),
		geom.NewBox(geom.Point{0, 0}, geom.Point{0.08, 1}),
		geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1}),
	}
	compareRound := func(round int) {
		churnMu.Lock()
		defer churnMu.Unlock()
		items := make([]core.Item, 0, len(model))
		for _, it := range model {
			items = append(items, it)
		}
		oracle := core.New(core.Config{Dim: dim, Seed: 99, LeafSize: 8}, pim.NewMachine(4, 1<<18))
		oracle.Build(append([]core.Item(nil), items...))
		for qi, q := range queries {
			for _, k := range []int{1, 7, 64} {
				want := oracle.KNN([]geom.Point{q}, k)[0]
				got, _, err := router.KNN(ctx, q, k)
				if err != nil {
					t.Fatalf("round %d q%d k=%d: %v", round, qi, k, err)
				}
				if len(got) != len(want) {
					t.Fatalf("round %d q%d k=%d: %d results, oracle %d", round, qi, k, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Dist2 != want[i].Dist2 {
						t.Fatalf("round %d q%d k=%d result %d: (id=%d d2=%v), oracle (id=%d d2=%v)",
							round, qi, k, i, got[i].ID, got[i].Dist2, want[i].ID, want[i].Dist2)
					}
				}
			}
		}
		for bi, box := range boxes {
			want := canonicalItems(oracle.RangeReport([]geom.Box{box})[0])
			got, _, err := router.Range(ctx, box)
			if err != nil {
				t.Fatalf("round %d box %d: %v", round, bi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d box %d: %d items, oracle %d", round, bi, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || !got[i].P.Equal(want[i].P) {
					t.Fatalf("round %d box %d item %d: id=%d, oracle id=%d", round, bi, i, got[i].ID, want[i].ID)
				}
			}
		}
		p, radius := geom.Point{0.1, 0.1}, 0.07
		var want []core.Item
		for _, it := range items {
			if geom.Dist2(p, it.P) <= radius*radius {
				want = append(want, it)
			}
		}
		core.SortItems(want)
		got, _, err := router.Join(ctx, p, radius)
		if err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d join: %d matches, oracle %d", round, len(got), len(want))
		}
		for i := range want {
			if !core.ItemEq(got[i], want[i]) {
				t.Fatalf("round %d join match %d: %+v, oracle %+v", round, i, got[i], want[i])
			}
		}
	}

	// Drive the migration in the background while comparison rounds run in
	// the foreground — the oracle check provably overlaps staging, the
	// commit window, and the post-flip purge.
	var moved int64
	var committed bool
	var rebErr error
	rebDone := make(chan struct{})
	go func() {
		defer close(rebDone)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			moved, committed, rebErr = router.RebalanceOnce(ctx)
			if committed || rebErr != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	round := 0
	for running := true; running; round++ {
		select {
		case <-rebDone:
			running = false
		default:
		}
		compareRound(round)
	}
	if rebErr != nil {
		t.Fatalf("rebalance: %v", rebErr)
	}
	if !committed || moved == 0 {
		t.Fatalf("no migration committed (moved=%d, counts %v)", moved, router.CellCounts(ctx))
	}
	if round < 2 {
		t.Fatalf("only %d comparison rounds overlapped the migration", round)
	}

	// Let churn run against the new layout, then stop it and verify the end
	// state: epoch advanced, one more cell, exactly the acked set, drift
	// back under control.
	time.Sleep(100 * time.Millisecond)
	compareRound(round)
	close(done)
	wg.Wait()

	if got := router.Epoch(); got != 2 {
		t.Fatalf("placement epoch %d, want 2", got)
	}
	cells := router.Cells()
	if len(cells) != shards+1 {
		t.Fatalf("%d cells after split, want %d", len(cells), shards+1)
	}
	all, _, err := router.Range(ctx, geom.NewBox(geom.Point{-1, -1}, geom.Point{2, 2}))
	if err != nil {
		t.Fatalf("final full range: %v", err)
	}
	if len(all) != len(model) {
		t.Fatalf("cluster holds %d items, acked set is %d — acked writes lost or strays resurrected",
			len(all), len(model))
	}
	for _, it := range all {
		want, ok := model[it.ID]
		if !ok || !want.P.Equal(it.P) {
			t.Fatalf("cluster item %d/%v was never acked (or moved)", it.ID, it.P)
		}
	}
	after := shardLoadRatio(router.CellCounts(ctx), cells, shards)
	if after >= before || after > 1.4 {
		t.Fatalf("drift ratio %.2f after migration (was %.2f), want < 1.4 and improved", after, before)
	}
	m := router.Metrics()
	if m.Rebalances != 1 || m.MigratedPoints != moved {
		t.Fatalf("metrics: rebalances=%d migrated=%d, want 1/%d", m.Rebalances, m.MigratedPoints, moved)
	}

	// With the writers stopped, a second hot spot forces one more split,
	// and its migration is the only traffic on the wire. Each moved point
	// crosses the wire once per hop — the cut pull plus one staging per
	// replica — and the split plane comes from a fixed-size sample (8 pages
	// of 256 points), so the bytes track the moved points, not the dataset.
	var hot []core.Item
	for i := 0; i < 3000; i++ {
		hot = append(hot, core.Item{ID: idGen.Add(1), P: geom.Point{0.8 + rng.Float64()*0.2, 0.8 + rng.Float64()*0.2}})
	}
	if n, err := router.BatchUpdate(ctx, false, hot); err != nil || n != len(hot) {
		t.Fatalf("second hot spot: acked %d/%d, err %v", n, len(hot), err)
	}
	m0 := router.Metrics()
	moved2, committed2, err := router.RebalanceOnce(ctx)
	if err != nil || !committed2 {
		t.Fatalf("second split: committed %v, err %v (counts %v)", committed2, err, router.CellCounts(ctx))
	}
	m1 := router.Metrics()
	wire := m1.WireBytesOut + m1.WireBytesIn - m0.WireBytesOut - m0.WireBytesIn
	pageBytes := func(n int) int64 {
		items := make([]core.Item, n)
		ats := make([]int64, n)
		for i := range items {
			items[i] = core.Item{ID: int32(i), P: geom.Point{0.9, 0.9}}
			ats[i] = shard.UntrackedDeadline
		}
		return int64(len(shard.EncodeFrame(1, shard.MigratePage{Items: items, ExpireAts: ats}, dim)))
	}
	itemBytes := (pageBytes(100) - pageBytes(0)) / 100
	const splitSample = 8 * 256
	budget := itemBytes * (int64(1+router.Replication())*moved2 + splitSample) * 115 / 100
	if wire > budget {
		t.Fatalf("second split moved %d points in %d wire bytes, over the %d-byte budget of %d B per point crossing",
			moved2, wire, budget, itemBytes)
	}
}

// TestTornMigrationAppliesNothing: a migration stage that never reaches a
// well-formed commit — dropped conn, short page stream, out-of-sequence
// page — leaves the destination byte-for-byte untouched.
func TestTornMigrationAppliesNothing(t *testing.T) {
	const dim = 2
	sh := startShard(t, dim, 1, "", "127.0.0.1:0")
	defer sh.stop()
	client := shard.NewClient(sh.addr, dim)
	defer client.Close()
	ctx := context.Background()

	resident := []core.Item{
		{ID: 1, P: geom.Point{0.1, 0.1}},
		{ID: 2, P: geom.Point{0.6, 0.6}},
		{ID: 3, P: geom.Point{0.9, 0.2}},
	}
	if n, err := client.Update(ctx, false, resident); err != nil || n != len(resident) {
		t.Fatalf("seed: %d, %v", n, err)
	}
	full := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})
	snapshot := func() []core.Item {
		items, err := client.Range(ctx, []geom.Box{full})
		if err != nil {
			t.Fatalf("range: %v", err)
		}
		return canonicalItems(items[0])
	}
	want := snapshot()
	if len(want) != len(resident) {
		t.Fatalf("seeded %d items, shard holds %d", len(resident), len(want))
	}
	staged := []core.Item{
		{ID: 10, P: geom.Point{0.55, 0.55}},
		{ID: 11, P: geom.Point{0.65, 0.65}},
	}
	ats := []int64{shard.UntrackedDeadline, shard.UntrackedDeadline}
	checkUntouched := func(what string) {
		t.Helper()
		got := snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: shard holds %d items, want the untouched %d", what, len(got), len(want))
		}
		for i := range got {
			if !core.ItemEq(got[i], want[i]) {
				t.Fatalf("%s: item %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}

	// Dropped conn mid-stage: Begin + one page, then the conn dies. The
	// stage lives on the conn's handler goroutine only, so nothing applies.
	sess, err := client.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.MigrateBegin(ctx, 5, 0, full, 3); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := sess.MigratePage(ctx, 5, 0, 0, staged, ats); err != nil {
		t.Fatalf("page: %v", err)
	}
	sess.Abort()
	checkUntouched("after dropped conn")

	// Short stream: commit with fewer items staged than Begin promised.
	sess, err = client.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.MigrateBegin(ctx, 6, 0, full, 3); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := sess.MigratePage(ctx, 6, 0, 0, staged, ats); err != nil {
		t.Fatalf("page: %v", err)
	}
	_, err = sess.MigrateCommit(ctx, 6, 0, nil, nil, nil)
	var re *shard.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "torn migration stage") {
		t.Fatalf("short-stream commit: err = %v, want torn-stage rejection", err)
	}
	sess.Abort()
	checkUntouched("after torn-stage commit")

	// Out-of-sequence page: the stage is dropped, and a commit after it has
	// no matching begin.
	sess, err = client.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.MigrateBegin(ctx, 7, 0, full, 4); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := sess.MigratePage(ctx, 7, 0, 2, staged, ats); err == nil {
		t.Fatal("out-of-sequence page accepted")
	}
	sess.Abort()
	sess, err = client.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.MigrateCommit(ctx, 7, 0, nil, nil, nil); err == nil {
		t.Fatal("commit without matching begin accepted")
	}
	sess.Abort()
	checkUntouched("after out-of-sequence page")
}

// TestKNNStrayCrowdingStaysExact: migration strays — points a shard holds
// in a region it no longer owns, e.g. copies of post-flip deletes awaiting
// their purge — must not be able to crowd an owned true neighbor out of a
// shard's truncated top-k. The router must escalate the per-shard ask
// until the ownership-filtered answer is conclusive, keeping kNN
// bit-identical to the oracle over the acked set.
func TestKNNStrayCrowdingStaysExact(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 2, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	cluster := make([]*testShard, 2)
	addrs := make([]string, 2)
	for i := range cluster {
		cluster[i] = startShard(t, dim, int64(i+1), "", "127.0.0.1:0")
		defer cluster[i].stop()
		addrs[i] = cluster[i].addr
	}
	router, err := shard.NewRouter(part, addrs, shard.Config{
		Timeout:       5 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		Replication:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	q := geom.Point{0.45, 0.5}
	strayX := 0.51
	if part.Owner(q) == part.Owner(geom.Point{strayX, 0.5}) {
		t.Fatalf("test premise broken: query and stray positions share cell %d", part.Owner(q))
	}
	homeShard := router.Cells()[part.Owner(q)].Primary

	// Acked set: six owned neighbors around q in its own cell (distances
	// 0.10..0.20) plus three far points in the other cell.
	var acked []core.Item
	id := int32(0)
	for _, d := range []float64{0.10, 0.15, 0.20} {
		acked = append(acked,
			core.Item{ID: id, P: geom.Point{0.45, 0.5 - d}},
			core.Item{ID: id + 1, P: geom.Point{0.45, 0.5 + d}})
		id += 2
	}
	for _, y := range []float64{0.2, 0.5, 0.8} {
		acked = append(acked, core.Item{ID: id, P: geom.Point{0.95, y}})
		id++
	}
	if n, err := router.BatchUpdate(ctx, false, acked); err != nil || n != len(acked) {
		t.Fatalf("seed: acked %d/%d, err %v", n, len(acked), err)
	}

	// Strays: injected directly into q's home shard, inside the OTHER
	// cell's box, closer to q (dist ~0.063) than every owned neighbor —
	// exactly what an un-purged moved region of deleted points looks like.
	strays := []core.Item{
		{ID: 1000, P: geom.Point{strayX, 0.48}},
		{ID: 1001, P: geom.Point{strayX, 0.50}},
		{ID: 1002, P: geom.Point{strayX, 0.52}},
	}
	direct := shard.NewClient(cluster[homeShard].addr, dim)
	defer direct.Close()
	if n, err := direct.Update(ctx, false, strays); err != nil || n != len(strays) {
		t.Fatalf("stray injection: applied %d/%d, err %v", n, len(strays), err)
	}

	oracle := core.New(core.Config{Dim: dim, Seed: 99, LeafSize: 8}, pim.NewMachine(4, 1<<18))
	oracle.Build(append([]core.Item(nil), acked...))
	for k := 1; k <= len(acked)+3; k++ {
		want := oracle.KNN([]geom.Point{q}, k)[0]
		got, _, err := router.KNN(ctx, q, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, oracle %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist2 != want[i].Dist2 {
				t.Fatalf("k=%d result %d: (id=%d d2=%v), oracle (id=%d d2=%v) — stray crowded out an owned neighbor",
					k, i, got[i].ID, got[i].Dist2, want[i].ID, want[i].Dist2)
			}
		}
	}
	// And the strays stay invisible to range reads too.
	all, _, err := router.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("full range: %v", err)
	}
	if len(all) != len(acked) {
		t.Fatalf("cluster reports %d items, acked set is %d — strays leaked", len(all), len(acked))
	}
}

// TestExpirePurgeInterlock: a queued stray purge must not wedge Expire.
// On a reachable shard Expire drains the purge inline and proceeds; a
// purge stranded on a dead shard degrades Expire honestly (ErrDegraded
// from the eligibility gate, not an eternal ErrMigrating) and no longer
// short-circuits rebalance passes.
func TestExpirePurgeInterlock(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 2, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	cluster := make([]*testShard, 2)
	addrs := make([]string, 2)
	for i := range cluster {
		cluster[i] = startShard(t, dim, int64(i+1), "", "127.0.0.1:0")
		defer cluster[i].stop()
		addrs[i] = cluster[i].addr
	}
	router, err := shard.NewRouter(part, addrs, shard.Config{
		Timeout:       2 * time.Second,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
		Replication:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	// Reachable shard: the pending purge is drained inline by Expire itself.
	router.MarkDirtyForTest(1, 1, geom.NewBox(geom.Point{0.6, 0.6}, geom.Point{0.7, 0.7}))
	if !router.PurgesPendingForTest() {
		t.Fatal("test hook failed to queue a purge")
	}
	if n, _, err := router.Expire(ctx, 1); err != nil || n != 0 {
		t.Fatalf("expire with drainable purge: n=%d err=%v, want a clean empty sweep", n, err)
	}
	if router.PurgesPendingForTest() {
		t.Fatal("expire did not drain the pending purge inline")
	}

	// Dead shard: queue a purge on it, then kill it. Expire must degrade
	// honestly, not bounce ErrMigrating forever.
	router.MarkDirtyForTest(1, 1, geom.NewBox(geom.Point{0.6, 0.6}, geom.Point{0.7, 0.7}))
	cluster[1].stop()
	waitFor(t, 10*time.Second, "shard 1 marked unhealthy", func() bool {
		return !router.Status()[1].Healthy
	})
	_, _, err = router.Expire(ctx, 2)
	if errors.Is(err, shard.ErrMigrating) {
		t.Fatal("expire bounced ErrMigrating for a purge stranded on a dead shard")
	}
	if !errors.Is(err, shard.ErrDegraded) {
		t.Fatalf("expire with dead shard: err = %v, want ErrDegraded", err)
	}
	// A rebalance pass is no longer short-circuited by the stranded purge:
	// it proceeds to sampling (which degrades loudly at R=1 with a dead
	// shard) instead of silently returning a quiet pass.
	if _, _, err := router.RebalanceOnce(ctx); !errors.Is(err, shard.ErrDegraded) {
		t.Fatalf("rebalance with dead dirty shard: err = %v, want the sampling ErrDegraded, not a silent skip", err)
	}
}

// TestCellCountsStaleEpochDropped: when live sampling fails, CellCounts may
// fall back to the cached sample only if it was taken under the current
// layout epoch — a cache from an older geometry has a different cell set.
func TestCellCountsStaleEpochDropped(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 2, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	// Unreachable shards: every live sample fails, so CellCounts exercises
	// only the fallback path.
	router, err := shard.NewRouter(part, []string{"127.0.0.1:1", "127.0.0.1:1"}, shard.Config{
		Timeout:       200 * time.Millisecond,
		ProbeInterval: time.Hour,
		Replication:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	cached := []shard.CellCount{{Cell: 0, Shard: 0, Count: 5}, {Cell: 1, Shard: 1, Count: 7}}
	router.SetLastCountsForTest(cached, router.Epoch())
	if got := router.CellCounts(ctx); len(got) != len(cached) || got[0].Count != 5 || got[1].Count != 7 {
		t.Fatalf("same-epoch fallback: got %v, want the cached sample", got)
	}
	router.SetLastCountsForTest(cached, router.Epoch()+1)
	if got := router.CellCounts(ctx); len(got) != 0 {
		t.Fatalf("stale-epoch fallback: got %v, want the mismatched cache dropped", got)
	}
}

// TestCellCountsProbeFailureCountsAgainstHealth: a per-cell count sample is
// a shard call like any other, so a transport failure during it raises the
// shard's failure count (the health signal) instead of vanishing.
func TestCellCountsProbeFailureCountsAgainstHealth(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 2, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	cluster := []*testShard{
		startShard(t, dim, 1, "", "127.0.0.1:0"),
		startShard(t, dim, 2, "", "127.0.0.1:0"),
	}
	defer func() {
		for _, s := range cluster {
			s.stop()
		}
	}()
	router, err := shard.NewRouter(part, []string{cluster[0].addr, cluster[1].addr}, shard.Config{
		Timeout:       time.Second,
		ProbeInterval: time.Hour,
		FailThreshold: 100,
		Replication:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	if got := router.CellCounts(ctx); len(got) != 2 {
		t.Fatalf("healthy sample: got %v, want 2 cells", got)
	}

	_ = cluster[1].ln.Close()
	router.CellCounts(ctx)
	if got := router.FailsForTest(1); got != 1 {
		t.Fatalf("shard 1 failure count %d after a failed count sample, want 1", got)
	}
	if got := router.FailsForTest(0); got != 0 {
		t.Fatalf("shard 0 failure count %d, want 0 (its sample succeeded)", got)
	}
}
