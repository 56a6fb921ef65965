package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/hist"
	"pimkd/internal/kd"
)

// Join reports every stored item within radius of the probe point, sorted
// in the canonical item order — identical to a single tree holding the
// cluster's points. Only cells within radius of the probe are visited;
// each must be covered by an eligible replica (failing replicas fail over
// to the cell's remaining replicas within the request), otherwise
// ErrDegraded. Cross-replica duplicates are removed exactly — the
// replicated state is a set keyed (ID, P).
func (r *Router) Join(ctx context.Context, p geom.Point, radius float64) ([]core.Item, Fanout, error) {
	if len(p) != r.dim() {
		return nil, Fanout{Shards: len(r.shards)}, fmt.Errorf("shard: probe dimension %d, cluster dimension %d", len(p), r.dim())
	}
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
		return nil, Fanout{Shards: len(r.shards)}, fmt.Errorf("shard: join radius %v out of range", radius)
	}
	r.m.joinRequests.Add(1)
	return r.inRegion(ctx, kd.Ball(p, radius), "join ball", func(c context.Context, sh *shardHandle, _ []int) (any, error) {
		return sh.client.Join(c, []geom.Point{p}, radius)
	})
}

// Aggregate answers a windowed aggregation (count + exact coordinate sums)
// over the box across the cluster. Each box-intersecting cell is assigned
// to exactly one eligible replica, and the shard-side partial aggregates
// only the items its assigned cells own — so every stored point counts
// once no matter how many replicas hold it. Partials merge through
// ExactSum, so the centroid is bit-identical to a single-tree aggregation
// regardless of sharding, replication, or merge order. Every intersecting
// cell must be covered, otherwise ErrDegraded.
func (r *Router) Aggregate(ctx context.Context, box geom.Box) (core.BoxAggregate, Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	lay := r.acquireLayout()
	defer releaseLayout(lay)
	if box.Dim() != lay.part.Dim() {
		return core.BoxAggregate{}, fan, fmt.Errorf("shard: box dimension %d, cluster dimension %d", box.Dim(), lay.part.Dim())
	}
	r.m.aggRequests.Add(1)

	g := kd.InBox(box)
	resps, uncovered := r.coverCells(ctx, lay, r.meeting(lay, &g, &fan), map[int]bool{}, map[int]bool{}, false,
		func(c context.Context, sh *shardHandle, cells []int) (any, error) {
			// Cell-assigned exact counting: the shard aggregates only items
			// the assigned cell boxes own, so migration strays outside every
			// hosted box are already excluded.
			boxes := make([]geom.Box, len(cells))
			for j, cell := range cells {
				boxes[j] = lay.part.Cell(cell)
			}
			return sh.client.AggregateCells(c, box, boxes)
		})
	fan.Queried = len(resps)
	if len(uncovered) > 0 {
		r.m.degraded.Add(1)
		return core.BoxAggregate{}, fan, fmt.Errorf("%w: cell %d intersects aggregate box and has no in-sync replica",
			ErrDegraded, uncovered[0])
	}
	var merged core.BoxAggregate
	for _, rp := range resps {
		part := rp.v.(core.BoxAggregate)
		merged.Merge(&part)
	}
	return merged, fan, nil
}

// Ingest stores a streaming insert (with its logical expiry deadline) on
// every replica of its owning cell. Like Insert, it acks when any eligible
// replica durably applied it, failing over past a dead primary; replicas
// that missed it are fenced stale until they resync.
func (r *Router) Ingest(ctx context.Context, item core.Item, expireAt int64) (Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	if len(item.P) != r.dim() {
		return fan, fmt.Errorf("shard: item dimension %d, cluster dimension %d", len(item.P), r.dim())
	}
	r.m.ingests.Add(1)
	items := []core.Item{item}
	ats := []int64{expireAt}
	_, queried, err := r.fanWrite(ctx, items, 1,
		func(int) MigrateOp { return MigrateOp{Item: item, ExpireAt: expireAt} },
		func(c context.Context, sh *shardHandle, _ []int) error {
			_, err := sh.client.Ingest(c, items, ats)
			return err
		})
	fan.Queried = queried
	fan.Pruned = len(r.shards) - queried
	return fan, err
}

// Expire sweeps every shard's ingested items whose deadline is at or
// before now and returns the total distinct items deleted. Every replica
// of every cell tracks the same expiry entries, so the sweep requires the
// whole cluster eligible (each cell must be swept on all its replicas or
// their entry sets diverge) and the per-shard counts must sum to an exact
// multiple of the replication factor. A partial failure degrades the
// sweep; the caller retries with the same now — sweeps are idempotent at a
// fixed horizon, though a retry after a partial sweep may undercount the
// already-swept replicas' share until the horizon fully drains.
func (r *Router) Expire(ctx context.Context, now int64) (int64, Fanout, error) {
	fan := Fanout{Shards: len(r.shards)}
	r.m.expires.Add(1)
	if r.commitGate.Load() {
		return 0, fan, ErrMigrating
	}
	// A pending stray purge on a reachable shard would break the
	// exact-multiple-of-R count check below (the shard would sweep TTL
	// entries in a region it no longer owns), so clear it inline first —
	// each purge is one cheap exact-set-to-empty round. TryLock: a busy
	// rebalancer is mid-pass and either drains the purge itself or has a
	// migration open, which the gate below answers.
	if r.purgesPending() && r.rb.runMu.TryLock() {
		r.drainDirty(ctx)
		r.rb.runMu.Unlock()
	}
	// Expiry cannot run while a migration is in flight (the shard-side bulk
	// sweep can't be captured in the migration ledger — the destination
	// would keep entries the source expired) or while a purge is still
	// queued on a shard that would otherwise count toward the sweep. Purges
	// stranded on ineligible shards fall through: the eligibility gate
	// below reports those as ErrDegraded, the honest verdict — never an
	// eternal ErrMigrating because one crashed node pinned a purge.
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	if r.mig != nil || r.purgeBlocksExpiry() {
		return 0, fan, ErrMigrating
	}
	for _, sh := range r.shards {
		if !r.eligible(sh) {
			r.m.degraded.Add(1)
			return 0, fan, fmt.Errorf("%w: shard %d not in sync for expiry sweep", ErrDegraded, sh.id)
		}
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		sum      int64
		firstErr error
	)
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *shardHandle) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
			defer cancel()
			r.m.shardCalls.Add(1)
			n, err := sh.client.Expire(cctx, now)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var re *RemoteError
				if !errors.As(err, &re) {
					r.noteFailure(sh)
				}
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			sh.fails.Store(0)
			if sh.count.Add(-n) < 0 {
				sh.count.Store(0)
			}
			sum += n
			fan.Queried++
		}(sh)
	}
	wg.Wait()
	if firstErr != nil {
		r.m.degraded.Add(1)
		r.m.errors.Add(1)
		return 0, fan, fmt.Errorf("%w: %v", ErrDegraded, firstErr)
	}
	rf := int64(r.Replication())
	if sum%rf != 0 {
		r.m.degraded.Add(1)
		return 0, fan, fmt.Errorf("%w: expiry counts disagree across replicas (%d swept, replication %d)",
			ErrDegraded, sum, rf)
	}
	return sum / rf, fan, nil
}

// KindQuantiles is one request kind's latency quantiles in microseconds,
// derived from the shard's (or the cluster-merged) histogram.
type KindQuantiles struct {
	Kind   string  `json:"kind"`
	Count  int64   `json:"latency_count"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// ShardLatency is one shard's per-kind latency view.
type ShardLatency struct {
	ID    int             `json:"id"`
	Kinds []KindQuantiles `json:"kinds"`
}

// Latency fetches every healthy shard's per-kind latency histograms over
// the wire and returns per-shard quantiles plus the cluster-wide merge.
// Histograms travel as sparse bucket counts and merge bucket-wise, so the
// cluster quantiles equal a single histogram recording every observation.
// Collection is best-effort observability: unreachable shards are simply
// absent from the per-shard list (and the merge).
func (r *Router) Latency(ctx context.Context) ([]ShardLatency, []KindQuantiles) {
	type shardHists struct {
		id int
		hs map[string]*hist.Histogram
	}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		all []shardHists
	)
	for _, sh := range r.shards {
		if !sh.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(sh *shardHandle) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
			defer cancel()
			r.m.shardCalls.Add(1)
			resp, err := sh.client.Stats(cctx)
			if err != nil {
				return
			}
			hs := make(map[string]*hist.Histogram, len(resp.Kinds))
			for _, k := range resp.Kinds {
				h := &hist.Histogram{}
				for _, b := range k.Buckets {
					h.RecordN(b.Low, b.Count)
				}
				h.ObserveMax(k.Max)
				hs[k.Kind] = h
			}
			mu.Lock()
			all = append(all, shardHists{sh.id, hs})
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	merged := map[string]*hist.Histogram{}
	perShard := make([]ShardLatency, 0, len(all))
	for _, s := range all {
		perShard = append(perShard, ShardLatency{ID: s.id, Kinds: kindQuantiles(s.hs)})
		for kind, h := range s.hs {
			if merged[kind] == nil {
				merged[kind] = &hist.Histogram{}
			}
			merged[kind].Merge(h)
		}
	}
	return perShard, kindQuantiles(merged)
}

// kindQuantiles converts per-kind histograms to sorted quantile rows.
func kindQuantiles(hs map[string]*hist.Histogram) []KindQuantiles {
	names := make([]string, 0, len(hs))
	for k := range hs {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]KindQuantiles, 0, len(names))
	for _, name := range names {
		h := hs[name]
		if h.Count() == 0 {
			continue
		}
		us := func(v int64) float64 { return float64(v) / float64(time.Microsecond) }
		out = append(out, KindQuantiles{
			Kind:   name,
			Count:  h.Count(),
			P50US:  us(h.Quantile(0.50)),
			P90US:  us(h.Quantile(0.90)),
			P99US:  us(h.Quantile(0.99)),
			P999US: us(h.Quantile(0.999)),
			MaxUS:  us(h.Max()),
		})
	}
	return out
}
