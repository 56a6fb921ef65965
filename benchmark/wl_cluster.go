package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

type routerBackend struct{ r *shard.Router }

func (b routerBackend) knn(ctx context.Context, q geom.Point) ([]neighbour, serve.BatchInfo, error) {
	cands, _, err := b.r.KNN(ctx, q, knnK)
	out := make([]neighbour, len(cands))
	for i, c := range cands {
		out[i] = neighbour{id: c.ID, d2: c.Dist2}
	}
	return out, serve.BatchInfo{}, err
}
func (b routerBackend) rangeQ(ctx context.Context, bx geom.Box) ([]core.Item, serve.BatchInfo, error) {
	items, _, err := b.r.Range(ctx, bx)
	return items, serve.BatchInfo{}, err
}

// lookup is what the router's /lookup endpoint runs: a radius-0 join.
func (b routerBackend) lookup(ctx context.Context, p geom.Point) ([]core.Item, serve.BatchInfo, error) {
	items, _, err := b.r.Join(ctx, p, 0)
	return items, serve.BatchInfo{}, err
}
func (b routerBackend) insert(ctx context.Context, it core.Item) (serve.BatchInfo, error) {
	_, err := b.r.Insert(ctx, it)
	return serve.BatchInfo{}, err
}
func (b routerBackend) del(ctx context.Context, it core.Item) (serve.BatchInfo, error) {
	_, err := b.r.Delete(ctx, it)
	return serve.BatchInfo{}, err
}
func (routerBackend) sqrtDist() bool    { return false }
func (routerBackend) exactLookup() bool { return true }

func unitBox() geom.Box { return geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}} }

// seedChunk is how many items one Router.BatchUpdate call carries while
// seeding, small enough that a shard applies it well inside the router's
// 2 s per-call timeout even under the race detector.
const seedChunk = 2048

// runClusterMixed is the cluster_mixed workload: three in-process shards
// behind loopback listeners, a router with replication 2 and every
// background loop at its default, a mixed read/write load through the
// router's methods. The shard layer dominates.
func runClusterMixed(e *env) *passResult {
	return runServing(e, "cluster_mixed", func(sv *servingRun) (*stack, error) {
		st := &stack{}
		var listeners []*serve.ShardListener
		var router *shard.Router
		st.close = func() {
			if router != nil {
				router.Close()
			}
			for _, ln := range listeners {
				_ = ln.Close()
			}
			for _, svc := range st.services {
				_ = svc.Close()
			}
		}
		addrs := make([]string, clusterSize)
		for j := range addrs {
			mach := pim.NewMachine(modulesP, cacheWords)
			cfg := treeConfig()
			cfg.Seed += int64(j)
			svc := sv.hooks.newService(serve.Config{Seed: programSeed + int64(j)}, core.New(cfg, mach))
			st.services = append(st.services, svc)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				st.close()
				return nil, err
			}
			listeners = append(listeners, serve.NewShardListener(svc, ln, nil, nil))
			addrs[j] = ln.Addr().String()
		}
		part, err := shard.NewUniformPartition(dim, clusterSize, unitBox())
		if err != nil {
			st.close()
			return nil, err
		}
		router, err = shard.NewRouter(part, addrs, shard.Config{Replication: replication})
		if err != nil {
			st.close()
			return nil, err
		}
		ctx := context.Background()
		t0 := time.Now()
		items := sv.in.items()
		for lo := 0; lo < len(items); lo += seedChunk {
			hi := lo + seedChunk
			if hi > len(items) {
				hi = len(items)
			}
			if acked, err := router.BatchUpdate(ctx, false, items[lo:hi]); err != nil || acked != hi-lo {
				st.close()
				return nil, fmt.Errorf("seeding: acked %d of %d: %v", acked, hi-lo, err)
			}
		}
		sv.loadSeconds = time.Since(t0).Seconds()
		// The /readyz condition: every cell has an in-sync replica — here,
		// stricter, every shard in sync and none fenced.
		deadline := time.Now().Add(10 * time.Second)
		for {
			m := router.Metrics()
			if m.SyncedShards == clusterSize && m.StaleShards == 0 && m.HealthyShards == clusterSize {
				break
			}
			if time.Now().After(deadline) {
				st.close()
				return nil, fmt.Errorf("cluster not in sync after seeding: %+v", m)
			}
			time.Sleep(5 * time.Millisecond)
		}
		st.be = routerBackend{router}
		before := router.Metrics()
		st.finish = func(res *passResult, sv *servingRun) {
			clusterMetrics(res, sv, router, before)
			checkReplicas(res, part, addrs)
			if e.tr != nil {
				wireBytes(res, sv, router)
				runLadder(e, res, sv.in, true)
			}
		}
		return st, nil
	})
}

// clusterMetrics fills the shard.* counts from Router.Metrics deltas.
func clusterMetrics(res *passResult, sv *servingRun, router *shard.Router, before shard.MetricsSnapshot) {
	m := router.Metrics()
	reads := 0
	for _, k := range sv.plan.kinds {
		if !isWrite(k) {
			reads++
		}
	}
	res.set("shard.calls_per_op", float64(m.ShardCalls-before.ShardCalls)/float64(res.Attempted), int(res.Attempted))
	res.set("shard.pruned_per_read", float64(m.Pruned-before.Pruned)/float64(reads), reads)
	res.set("shard.hedges", float64(m.Hedges-before.Hedges), 0)
	res.set("shard.degraded", float64(m.Degraded-before.Degraded), 0)
	res.set("shard.errors", float64(m.Errors-before.Errors), 0)
	res.set("shard.sweeps", float64(m.Sweeps-before.Sweeps), 0)
	if d := m.Degraded - before.Degraded; d != 0 {
		res.oracleFail(fmt.Errorf("router served %d degraded answers", d))
	}
	if m.StaleShards != 0 {
		res.oracleFail(fmt.Errorf("%d shards fenced stale at the end of the run", m.StaleShards))
	}
	res.OracleChecks++
}

// checkReplicas asks every replica of every cell for its checksum and
// demands the copies agree.
func checkReplicas(res *passResult, part *shard.Partition, addrs []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pl := shard.NewPlacement(len(addrs), replication)
	clients := make([]*shard.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = shard.NewClient(a, dim)
		defer clients[i].Close()
	}
	for cell := 0; cell < pl.NumCells(); cell++ {
		var first shard.CellChecksum
		for i, rep := range pl.Replicas(cell) {
			sums, err := clients[rep].CellChecksums(ctx, []int{cell}, []geom.Box{part.Cell(cell)})
			if err != nil || len(sums) != 1 {
				res.oracleFail(fmt.Errorf("checksum of cell %d on shard %d: %v", cell, rep, err))
				continue
			}
			if i == 0 {
				first = sums[0]
			} else if sums[0] != first {
				res.oracleFail(fmt.Errorf("cell %d: shard %d holds %+v, the primary %+v", cell, rep, sums[0], first))
			}
		}
		res.OracleChecks++
	}
}

// wireBytes measures bytes on the wire per read and per write with one
// caller and the load stopped, so a delta of the router's byte counters
// belongs to the calls made (the probe's pings add a few bytes).
func wireBytes(res *passResult, sv *servingRun, router *shard.Router) {
	ctx := context.Background()
	const calls = 100
	bytes := func() int64 { m := router.Metrics(); return m.WireBytesOut + m.WireBytesIn }
	r := newRNG(sv.in.seed, tagProbe)
	b0 := bytes()
	for i := 0; i < calls; i++ {
		if _, _, err := router.KNN(ctx, sv.in.jittered(r), knnK); err != nil {
			res.oracleFail(fmt.Errorf("wire probe knn: %w", err))
			return
		}
	}
	b1 := bytes()
	for i := 0; i < calls/2; i++ {
		it := sv.in.freshItem(tagProbe, i)
		if _, err := router.Insert(ctx, it); err != nil {
			res.oracleFail(fmt.Errorf("wire probe insert: %w", err))
			return
		}
		if _, err := router.Delete(ctx, it); err != nil {
			res.oracleFail(fmt.Errorf("wire probe delete: %w", err))
			return
		}
	}
	b2 := bytes()
	res.set("shard.wire_bytes_per_read", float64(b1-b0)/calls, calls)
	res.set("shard.wire_bytes_per_write", float64(b2-b1)/calls, calls)
}
