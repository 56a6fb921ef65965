package shard_test

// Replication tests: primary failover (a dead shard's cells keep accepting
// writes and serving exact reads via the surviving replicas), peer rebuild
// (a shard restarting with a wiped data dir streams its cells back from a
// healthy replica and is unfenced only once provably caught up), and the
// torn-stream guarantee (an interrupted rebuild stream never partially
// applies a cell).

import (
	"context"
	"errors"
	"io"
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

// startRebuildingShard boots a shard like startShard but wired with a
// peer Rebuilder as the listener's sync state: the shard reports unsynced
// until its first convergence run completes and answers the router's
// resync nudges. Close the Rebuilder before stopping the shard.
func startRebuildingShard(t *testing.T, dim int, seed int64, dir, addr string, cfg serve.RebuildConfig) (*testShard, *serve.Rebuilder) {
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
	rb := serve.NewRebuilder(svc, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return &testShard{
		addr:  ln.Addr().String(),
		svc:   svc,
		ln:    serve.NewShardListener(svc, ln, nil, rb),
		store: store,
		tree:  tree,
	}, rb
}

// TestClusterReplicatedFailover: at replication factor 2, killing a shard
// loses nothing — the cells it hosted keep acking writes through their
// surviving replica (failover, not refusal) and every read stays
// bit-identical to the single-tree oracle throughout the outage.
func TestClusterReplicatedFailover(t *testing.T) {
	const (
		dim    = 2
		shards = 3
		victim = 1
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
		Timeout:       500 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.Replication() != 2 {
		t.Fatalf("replication = %d, want the default 2", router.Replication())
	}

	ctx := context.Background()
	items := tieHeavyItems()
	if acked, err := router.BatchUpdate(ctx, false, items); err != nil || acked != len(items) {
		t.Fatalf("seeding: acked %d/%d, err %v", acked, len(items), err)
	}
	oracle := core.New(core.Config{Dim: dim, Seed: 99, LeafSize: 8}, pim.NewMachine(4, 1<<18))
	oracle.Build(append([]core.Item(nil), items...))

	rng := rand.New(rand.NewSource(31))
	queries := oracleQueries(rng)
	checkAgainstOracle(t, ctx, router, oracle, queries)

	// Kill the victim. Every cell it hosted keeps a live replica (S=3, R=2).
	cluster[victim].stop()
	waitFor(t, 10*time.Second, "victim marked unhealthy", func() bool {
		return !router.Status()[victim].Healthy
	})

	// Writes across the whole space — including cells whose home primary is
	// dead — must all ack via the surviving replicas.
	var extra []core.Item
	sawVictimCell := false
	for id := int32(10000); id < 10060; id++ {
		it := core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}}
		extra = append(extra, it)
		if part.Owner(it.P) == victim {
			sawVictimCell = true
		}
	}
	if !sawVictimCell {
		t.Fatal("test premise broken: no extra item landed in the victim's home cell")
	}
	if acked, err := router.BatchUpdate(ctx, false, extra); err != nil || acked != len(extra) {
		t.Fatalf("writes during outage: acked %d/%d, err %v", acked, len(extra), err)
	}
	oracle.BatchInsert(extra)

	// Reads stay exact through the outage, served by the survivors.
	checkAgainstOracle(t, ctx, router, oracle, queries)

	m := router.Metrics()
	if m.Failovers == 0 {
		t.Fatal("no failovers recorded despite writes acked past a dead primary")
	}
	if m.StaleMarks == 0 {
		t.Fatal("the dead shard missed acked writes but was never fenced stale")
	}
	cells := router.Cells()
	cs := cells[victim] // cell i's home primary is shard i
	if cs.ActingPrimary == victim || cs.ActingPrimary < 0 {
		t.Fatalf("cell %d acting primary = %d during the outage, want a surviving replica", victim, cs.ActingPrimary)
	}
}

// TestClusterPeerRebuild: a shard restarting with an empty data dir
// streams its cells' points back from healthy replicas, and the router —
// which fenced it stale on revival — unfences it only after a post-revival
// convergence pass, at which point the replica holds every acked point of
// its hosted cells and the cluster again answers exactly, with zero acked
// updates lost.
func TestClusterPeerRebuild(t *testing.T) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	acked := map[int32]core.Item{}
	var batch []core.Item
	for id := int32(0); id < 300; id++ {
		batch = append(batch, core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}})
	}
	if n, err := router.BatchUpdate(ctx, false, batch); err != nil || n != len(batch) {
		t.Fatalf("seed: acked %d/%d, err %v", n, len(batch), err)
	}
	for _, it := range batch {
		acked[it.ID] = it
	}

	// Kill the victim, then keep writing: the victim's cells accumulate
	// acked state it has never seen.
	cluster[victim].stop()
	waitFor(t, 10*time.Second, "victim marked unhealthy", func() bool {
		return !router.Status()[victim].Healthy
	})
	var during []core.Item
	for id := int32(1000); id < 1100; id++ {
		during = append(during, core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}})
	}
	if n, err := router.BatchUpdate(ctx, false, during); err != nil || n != len(during) {
		t.Fatalf("writes during outage: acked %d/%d, err %v", n, len(during), err)
	}
	for _, it := range during {
		acked[it.ID] = it
	}

	// Restart on the same address with a WIPED data dir and a Rebuilder:
	// everything it once held must come back over the wire from its peers.
	pl := shard.NewPlacement(shards, router.Replication())
	cells := pl.CellsOf(victim)
	boxes := make([]geom.Box, len(cells))
	for i, c := range cells {
		boxes[i] = part.Cell(c)
	}
	rebuilt, rb := startRebuildingShard(t, dim, int64(victim+1), t.TempDir(), addrs[victim], serve.RebuildConfig{
		Self:         victim,
		Peers:        addrs,
		Cells:        cells,
		CellBoxes:    boxes,
		Replicas:     pl.Replicas,
		Dim:          dim,
		PageSize:     32, // small pages: the pull must paginate
		Timeout:      2 * time.Second,
		Patience:     5 * time.Second,
		PassInterval: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	cluster[victim] = rebuilt
	defer rb.Close()

	// The router fenced the revived shard stale; the nudge protocol must
	// drive a fresh convergence pass and then lift the fence.
	waitFor(t, 20*time.Second, "rebuilt shard synced and unfenced", func() bool {
		st := router.Status()[victim]
		return st.Healthy && st.Synced && !st.Stale
	})
	m := router.Metrics()
	if m.ResyncNudges == 0 {
		t.Fatal("shard was unfenced without a single resync nudge")
	}

	// Zero lost acked updates cluster-wide.
	items, _, err := router.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("full range after rebuild: %v", err)
	}
	if len(items) != len(acked) {
		t.Fatalf("cluster holds %d items after rebuild, acked %d", len(items), len(acked))
	}
	for _, it := range items {
		want, ok := acked[it.ID]
		if !ok || !want.P.Equal(it.P) {
			t.Fatalf("item %d/%v after rebuild was never acked", it.ID, it.P)
		}
	}

	// The rebuilt replica itself holds exactly the acked points of its
	// hosted cells — the boot gap arrived via snapshots, the live stream
	// via fanned writes, with no duplicates and no strays.
	wantLocal := 0
	for _, it := range acked {
		if pl.Hosts(part.Owner(it.P), victim) {
			wantLocal++
		}
	}
	local, _, err := rebuilt.svc.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("rebuilt shard local range: %v", err)
	}
	if len(local) != wantLocal {
		t.Fatalf("rebuilt shard holds %d items, want %d (its cells' acked points)", len(local), wantLocal)
	}
	for _, it := range local {
		want, ok := acked[it.ID]
		if !ok || !want.P.Equal(it.P) || !pl.Hosts(part.Owner(it.P), victim) {
			t.Fatalf("rebuilt shard holds unexpected item %d/%v", it.ID, it.P)
		}
	}
}

// TestEvidencedFenceOutlivesPatience pins the no-data-loss core of the
// fence protocol: a replica that missed an acked write (evidenced fence)
// must never be unfenced — no matter how long it waits — while the only
// replica holding that write is unreachable. The Patience fallback (serve
// local state when no peer turns up) is reserved for boot and
// precautionary revivals; letting an evidenced resync take it would
// reinstate a replica without the acked write, serve "exact" reads
// missing it, and let a later peer rebuild delete the write from its only
// durable copy. Once the holder returns, both shards must converge with
// zero lost acked updates and no mutual-fence deadlock (the returning
// holder's fence is precautionary, so it may fall back to its own durable
// state and then serve the evidenced side).
func TestEvidencedFenceOutlivesPatience(t *testing.T) {
	const (
		dim    = 2
		shards = 2
	)
	part, err := shard.NewUniformPartition(dim, shards, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	pl := shard.NewPlacement(shards, 2)
	rbCfg := func(self int, addrs []string) serve.RebuildConfig {
		cells := pl.CellsOf(self)
		boxes := make([]geom.Box, len(cells))
		for i, c := range cells {
			boxes[i] = part.Cell(c)
		}
		return serve.RebuildConfig{
			Self:         self,
			Peers:        append([]string(nil), addrs...),
			Cells:        cells,
			CellBoxes:    boxes,
			Replicas:     pl.Replicas,
			Dim:          dim,
			PageSize:     32,
			Timeout:      500 * time.Millisecond,
			Patience:     300 * time.Millisecond,
			PassInterval: 10 * time.Millisecond,
			Logf:         t.Logf,
		}
	}

	dirs := []string{t.TempDir(), t.TempDir()}
	cluster := make([]*testShard, shards)
	rbs := make([]*serve.Rebuilder, shards)
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	for i := range cluster {
		cluster[i], rbs[i] = startRebuildingShard(t, dim, int64(i+1), dirs[i], addrs[i], rbCfg(i, addrs))
		addrs[i] = cluster[i].addr
	}
	// Re-point both rebuilders' peer lists at the bound addresses (the
	// configs were built before listening). Cheapest correct fix: restart
	// both shards on their now-known addresses with full peer lists.
	for i := range cluster {
		rbs[i].Close()
		cluster[i].stop()
		cluster[i], rbs[i] = startRebuildingShard(t, dim, int64(i+1), dirs[i], addrs[i], rbCfg(i, addrs))
	}
	stopped := make([]bool, shards)
	down := func(i int) {
		rbs[i].Close()
		cluster[i].stop()
		stopped[i] = true
	}
	up := func(i int) {
		cluster[i], rbs[i] = startRebuildingShard(t, dim, int64(i+1), dirs[i], addrs[i], rbCfg(i, addrs))
		stopped[i] = false
	}
	defer func() {
		for i := range cluster {
			if !stopped[i] {
				rbs[i].Close()
				cluster[i].stop()
			}
		}
	}()

	router, err := shard.NewRouter(part, addrs, shard.Config{
		Timeout:       500 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(67))
	acked := map[int32]core.Item{}
	var batch []core.Item
	for id := int32(0); id < 60; id++ {
		batch = append(batch, core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}})
	}
	waitFor(t, 20*time.Second, "both shards synced", func() bool {
		for _, st := range router.Status() {
			if !st.Healthy || !st.Synced || st.Stale {
				return false
			}
		}
		return true
	})
	if n, err := router.BatchUpdate(ctx, false, batch); err != nil || n != len(batch) {
		t.Fatalf("seed: acked %d/%d, err %v", n, len(batch), err)
	}
	for _, it := range batch {
		acked[it.ID] = it
	}

	// Shard 1 goes down; a write lands, acked by shard 0 alone. Shard 1 is
	// now fenced with evidence: it misses an acked write only shard 0 holds.
	down(1)
	waitFor(t, 10*time.Second, "shard 1 unhealthy", func() bool {
		return !router.Status()[1].Healthy
	})
	w := core.Item{ID: 9000, P: geom.Point{0.5, 0.5}}
	if _, err := router.Insert(ctx, w); err != nil {
		t.Fatalf("write during outage: %v", err)
	}
	acked[w.ID] = w
	if !router.Status()[1].Stale {
		t.Fatal("shard 1 missed an acked write but was not fenced stale")
	}

	// The holder dies; the evidenced shard comes back with its durable,
	// W-less state. However long it waits, it must not be unfenced.
	down(0)
	waitFor(t, 10*time.Second, "shard 0 unhealthy", func() bool {
		return !router.Status()[0].Healthy
	})
	up(1)
	waitFor(t, 10*time.Second, "shard 1 healthy again", func() bool {
		return router.Status()[1].Healthy
	})
	waitFor(t, 10*time.Second, "shard 1 nudged", func() bool {
		return router.Metrics().ResyncNudges > 0
	})
	// Several Patience windows plus probe intervals: ample time for the
	// pre-fix bug (give-up path advances the generation, router unfences).
	time.Sleep(1500 * time.Millisecond)
	if st := router.Status()[1]; !st.Stale {
		t.Fatal("evidenced-fenced shard was unfenced while the acked write's only holder is down")
	}
	// And the cell degrades rather than serving reads missing W.
	if _, _, err := router.Range(ctx, unitBox()); !errors.Is(err, shard.ErrDegraded) {
		t.Fatalf("range with no in-sync replica: err = %v, want ErrDegraded", err)
	}

	// The holder returns (precautionary fence: nothing was acked while it
	// was down). It may serve its own durable state after Patience, which
	// then lets the evidenced shard converge — no mutual-fence deadlock.
	up(0)
	waitFor(t, 30*time.Second, "both shards synced and unfenced", func() bool {
		for _, st := range router.Status() {
			if !st.Healthy || !st.Synced || st.Stale {
				return false
			}
		}
		return true
	})
	items, _, err := router.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("full range after heal: %v", err)
	}
	if len(items) != len(acked) {
		t.Fatalf("cluster holds %d items after heal, acked %d", len(items), len(acked))
	}
	for _, it := range items {
		want, ok := acked[it.ID]
		if !ok || !want.P.Equal(it.P) {
			t.Fatalf("item %d/%v after heal was never acked", it.ID, it.P)
		}
	}
}

// startTruncatingProxy forwards client→server bytes unmodified but cuts
// both directions after limit server→client bytes, tearing every response
// stream mid-frame. Each new connection gets a fresh budget.
func startTruncatingProxy(t *testing.T, target string, limit int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", target)
			if err != nil {
				cc.Close()
				continue
			}
			go func() {
				defer cc.Close()
				defer sc.Close()
				go func() { _, _ = io.Copy(sc, cc) }()
				_, _ = io.CopyN(cc, sc, limit)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCellSnapshotPagesOneConsistentCut: all pages of one cell-snapshot
// pull on one connection must come from a single cut taken at page 0.
// Balanced churn between pages (one delete plus one insert keeps Total
// unchanged) would evade the rebuilder's Total-equality check if every
// page were a fresh snapshot; the per-connection stash makes the pull a
// consistent read of the page-0 state instead.
func TestCellSnapshotPagesOneConsistentCut(t *testing.T) {
	const (
		dim      = 2
		total    = 100
		pageSize = 10
	)
	s := startShard(t, dim, 1, "", "127.0.0.1:0")
	defer s.stop()

	ctx := context.Background()
	cl := shard.NewClient(s.addr, dim)
	defer cl.Close()
	rng := rand.New(rand.NewSource(71))
	var items []core.Item
	for id := int32(0); id < total; id++ {
		items = append(items, core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}})
	}
	if n, err := cl.Update(ctx, false, items); err != nil || n != total {
		t.Fatalf("seed: %d/%d, err %v", n, total, err)
	}
	want := append([]core.Item(nil), items...)
	core.SortItems(want)

	// The pull pins a Session, as the rebuilder and the rebalancer do; the
	// churn below rides the client's pooled conns.
	sess, err := cl.NewSession(ctx)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer sess.Close()
	first, err := sess.CellSnapshot(ctx, 0, unitBox(), 0, pageSize)
	if err != nil {
		t.Fatalf("page 0: %v", err)
	}
	if first.Total != total || len(first.Items) != pageSize {
		t.Fatalf("page 0: total %d, %d items", first.Total, len(first.Items))
	}

	// Balanced churn between pages: delete an item due in a later page,
	// insert a fresh one. Total stays 100 either way — only cut
	// consistency can tell the difference.
	victim := want[total/2]
	if n, err := cl.Update(ctx, true, []core.Item{victim}); err != nil || n != 1 {
		t.Fatalf("churn delete: %d, err %v", n, err)
	}
	intruder := core.Item{ID: 9000, P: geom.Point{rng.Float64(), rng.Float64()}}
	if n, err := cl.Update(ctx, false, []core.Item{intruder}); err != nil || n != 1 {
		t.Fatalf("churn insert: %d, err %v", n, err)
	}

	got := append([]core.Item(nil), first.Items...)
	for off := uint64(pageSize); off < total; off += pageSize {
		page, err := sess.CellSnapshot(ctx, 0, unitBox(), off, pageSize)
		if err != nil {
			t.Fatalf("page at %d: %v", off, err)
		}
		if page.Total != total {
			t.Fatalf("page at %d reports total %d; cut drifted", off, page.Total)
		}
		got = append(got, page.Items...)
	}
	if len(got) != total {
		t.Fatalf("concatenated pages hold %d items, want %d", len(got), total)
	}
	sawVictim := false
	for i, it := range got {
		if it.ID == intruder.ID {
			t.Fatalf("page item %d is the mid-pull insert; pages are not one cut", i)
		}
		if it.ID != want[i].ID || !it.P.Equal(want[i].P) {
			t.Fatalf("page item %d = %d/%v, want %d/%v", i, it.ID, it.P, want[i].ID, want[i].P)
		}
		if it.ID == victim.ID {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Fatal("mid-pull delete leaked into the snapshot; pages are not one cut")
	}

	// A fresh pull from offset 0 sees the churned state.
	after, err := sess.CellSnapshot(ctx, 0, unitBox(), 0, total)
	if err != nil {
		t.Fatalf("fresh pull: %v", err)
	}
	if after.Total != total {
		t.Fatalf("fresh pull total %d, want %d (delete+insert balance)", after.Total, total)
	}
	foundIntruder := false
	for _, it := range after.Items {
		if it.ID == victim.ID {
			t.Fatal("fresh pull still holds the deleted item")
		}
		if it.ID == intruder.ID {
			foundIntruder = true
		}
	}
	if !foundIntruder {
		t.Fatal("fresh pull missing the inserted item")
	}
}

// TestRebuildTornStreamNeverPartial: a rebuild stream that tears mid-cell
// (the peer connection dies between snapshot pages) must never leave a
// partially-restored cell — the pull is abandoned with nothing applied,
// and after Patience the shard serves its (still-empty) local state.
func TestRebuildTornStreamNeverPartial(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 2, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	pl := shard.NewPlacement(2, 2)
	source := startShard(t, dim, 1, "", "127.0.0.1:0")
	defer source.stop()

	// Seed the source directly over the wire: a few hundred items per cell,
	// far more than one 32-item snapshot page.
	ctx := context.Background()
	cl := shard.NewClient(source.addr, dim)
	defer cl.Close()
	rng := rand.New(rand.NewSource(53))
	var items []core.Item
	for id := int32(0); id < 400; id++ {
		items = append(items, core.Item{ID: id, P: geom.Point{rng.Float64(), rng.Float64()}})
	}
	if n, err := cl.Update(ctx, false, items); err != nil || n != len(items) {
		t.Fatalf("seeding source: %d/%d, err %v", n, len(items), err)
	}

	// The destination reaches the source only through a proxy that tears
	// every connection after ~one page of snapshot bytes: the handshake and
	// ping get through, the multi-page cell stream never completes.
	proxyAddr := startTruncatingProxy(t, source.addr, 1500)
	cells := pl.CellsOf(1)
	boxes := make([]geom.Box, len(cells))
	for i, c := range cells {
		boxes[i] = part.Cell(c)
	}
	dest, rb := startRebuildingShard(t, dim, 2, "", "127.0.0.1:0", serve.RebuildConfig{
		Self:         1,
		Peers:        []string{proxyAddr, ""},
		Cells:        cells,
		CellBoxes:    boxes,
		Replicas:     pl.Replicas,
		Dim:          dim,
		PageSize:     32,
		Timeout:      500 * time.Millisecond,
		Patience:     700 * time.Millisecond,
		PassInterval: 20 * time.Millisecond,
		Logf:         t.Logf,
	})
	defer dest.stop()
	defer rb.Close()

	waitFor(t, 20*time.Second, "rebuilder gave up on the torn peer", func() bool {
		synced, _ := rb.Synced()
		return synced
	})
	got, _, err := dest.svc.Range(ctx, unitBox())
	if err != nil {
		t.Fatalf("destination range: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("torn rebuild stream partially applied %d items; a cell must restore atomically or not at all", len(got))
	}
}
