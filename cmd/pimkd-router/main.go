// Command pimkd-router fronts N pimkd-server shards as one logical
// PIM-kd-tree. A spatial kd-split partitioner assigns each shard a cell of
// the space; the router scatters kNN and range queries to only the shards
// whose cell can affect the answer (bounding-box and best-k distance
// pruning), merges the per-shard results into the exact global answer,
// routes inserts and deletes to the owning shard, and tracks shard health
// with periodic probes — unhealthy shards are excluded from scatter and
// reinstated when probes succeed again. Inter-node traffic uses the compact
// binary wire protocol (internal/shard), not JSON.
//
// Each shard is a pimkd-server started with -shard-addr (and typically its
// own -data-dir):
//
//	pimkd-server -addr :8081 -shard-addr :9081 -data-dir /var/lib/pimkd/s0 -n 0 &
//	pimkd-server -addr :8082 -shard-addr :9082 -data-dir /var/lib/pimkd/s1 -n 0 &
//	pimkd-server -addr :8083 -shard-addr :9083 -data-dir /var/lib/pimkd/s2 -n 0 &
//	pimkd-router -addr :8080 -shards localhost:9081,localhost:9082,localhost:9083 \
//	    -dim 2 -bounds 0,0,1,1
//
//	curl 'localhost:8080/knn?p=0.5,0.5&k=8'
//	curl 'localhost:8080/range?lo=0.1,0.1&hi=0.2,0.2'
//	curl -X POST 'localhost:8080/insert?id=123456&p=0.3,0.7'
//	curl 'localhost:8080/shardz'      # membership, health, drift ratios
//	curl 'localhost:8080/statsz'      # scatter/prune/failover/wire counters
//
// Replication: every partition cell is stored on -replication shards
// (primary + followers on the next shard indexes, mod N). Writes fan to
// all replicas of the owning cell and ack once any in-sync replica durably
// applied them, so a dead primary fails over to the surviving replicas
// instead of refusing the write; replicas that missed an acked write are
// fenced from reads until they resync (shards run a peer Rebuilder when
// started with -cluster-self/-cluster-peers). Reads are planned per cell
// over in-sync replicas, rotating across them so replication buys read
// throughput, and merged exactly — answers stay bit-identical to a single
// tree whichever replica serves. -replication 1 restores single-copy
// cells: no failover, a dead shard's cells are unavailable.
//
// Anti-entropy: every -sweep-interval the router collects per-cell
// checksums (point count + order-independent digest) from every in-sync
// replica and compares copies. A disagreement is re-sampled after
// -sweep-settle; replicas whose checksum held steady across both samples
// and still disagree with the majority are evidenced-fenced and repaired
// through the same peer-rebuild resync as a missed write. This catches
// silent divergence — disk corruption, a latent apply bug — that the
// write-path fence cannot see. Sweep results surface in /shardz and the
// sweeps/sweep_mismatches counters in /statsz.
//
// Online rebalancing: with -rebalance-interval set, the router samples
// per-cell point counts from each cell's acting primary and, when the most
// loaded shard drifts past -rebalance-threshold times the mean, splits that
// shard's largest cell at a sampled median and live-migrates the moving
// half to the least-loaded shards — a new placement epoch installed
// atomically, with writes racing the transfer captured in a dual-write
// ledger and replayed at commit, so no acked write is lost and reads stay
// bit-identical to a single tree throughout. Progress surfaces in /shardz
// (placement_epoch, cell_counts) and /statsz (rebalances, migrated_points,
// migrate_aborts).
//
// Failure semantics: the router never serves a silent partial answer. A
// query needing a cell with no in-sync replica fails with 503 (plus
// Retry-After) until one returns; an update is acked only when an in-sync
// replica durably applied it. Reads and writes make one attempt per
// replica; a read whose replica fails is retried on the cell's next
// in-sync replica within the same request.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimkd/internal/geom"
	"pimkd/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "client-facing HTTP listen address")
		shards    = flag.String("shards", "", "comma-separated shard wire addresses (host:port), one per partition cell")
		dim       = flag.Int("dim", 2, "point dimension")
		bounds    = flag.String("bounds", "", "partition bounds as lo...,hi... (2*dim comma-separated floats); default unit cube")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-shard call timeout")
		probe     = flag.Duration("probe-interval", 500*time.Millisecond, "health probe cadence")
		failAfter = flag.Int("fail-threshold", 3, "consecutive transport failures before a shard is excluded")
		repl      = flag.Int("replication", 2, "copies of every cell (clamped to the shard count; 1 = no replication)")
		sweep     = flag.Duration("sweep-interval", 0, "anti-entropy checksum sweep cadence (0 = 10x probe interval, negative = off)")
		settle    = flag.Duration("sweep-settle", 0, "settle window before a sweep mismatch is re-sampled and judged (0 = timeout)")
		rebalance = flag.Duration("rebalance-interval", 0, "online rebalancer cadence: sample per-cell loads and live-migrate the hottest cell's split half when drift exceeds -rebalance-threshold (0 = off)")
		rebThresh = flag.Float64("rebalance-threshold", 2.0, "max/mean shard drift ratio that triggers a rebalance and flags rebalance candidates in /shardz")
	)
	flag.Parse()

	addrs := splitNonEmpty(*shards)
	if len(addrs) == 0 {
		log.Fatal("need at least one shard: -shards host:port[,host:port...]")
	}
	box, err := parseBounds(*bounds, *dim)
	if err != nil {
		log.Fatalf("bad -bounds: %v", err)
	}

	part, err := shard.NewUniformPartition(*dim, len(addrs), box)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	router, err := shard.NewRouter(part, addrs, shard.Config{
		Replication:        *repl,
		Timeout:            *timeout,
		ProbeInterval:      *probe,
		FailThreshold:      *failAfter,
		SweepInterval:      *sweep,
		SweepSettle:        *settle,
		RebalanceInterval:  *rebalance,
		RebalanceThreshold: *rebThresh,
	})
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	log.Printf("replication factor %d (%d shards)", router.Replication(), len(addrs))
	for _, st := range router.Status() {
		cell := part.Cell(st.ID)
		log.Printf("shard %d at %s: healthy=%v count=%d cells=%v home=[%v, %v]",
			st.ID, st.Addr, st.Healthy, st.Count, st.Cells, cell.Lo, cell.Hi)
	}

	server := &http.Server{Addr: *addr, Handler: shard.NewHandler(router)}
	go func() {
		log.Printf("routing %d shards on %s (timeout=%v probe=%v)", len(addrs), *addr, *timeout, *probe)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	_ = server.Close()
	m := router.Metrics()
	router.Close()
	fmt.Printf("routed %d knn / %d range / %d updates: %d shard calls, %d pruned visits, %d degraded\n",
		m.KNNRequests, m.RangeRequests, m.Updates, m.ShardCalls, m.Pruned, m.Degraded)
	fmt.Printf("wire bytes: %d out, %d in\n", m.WireBytesOut, m.WireBytesIn)
	if m.Replication > 1 {
		fmt.Printf("replication: factor %d, %d failovers, %d stale fences, %d resync nudges\n",
			m.Replication, m.Failovers, m.StaleMarks, m.ResyncNudges)
		fmt.Printf("anti-entropy: %d sweeps, %d divergent replicas fenced, %d tie-broken verdicts\n",
			m.Sweeps, m.SweepMismatches, m.SweepTies)
	}
	if m.Rebalances > 0 || m.MigrateAborts > 0 {
		fmt.Printf("rebalancer: %d migrations committed (%d points moved, epoch %d, %d cells), %d aborted\n",
			m.Rebalances, m.MigratedPoints, m.Epoch, m.Cells, m.MigrateAborts)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseBounds parses "lo0,...,lo(d-1),hi0,...,hi(d-1)"; empty means the
// unit cube. The bounds only steer where split planes fall — ownership
// still covers all of R^d, so out-of-bounds points route fine.
func parseBounds(s string, dim int) (geom.Box, error) {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	if s == "" {
		for d := 0; d < dim; d++ {
			hi[d] = 1
		}
		return geom.NewBox(lo, hi), nil
	}
	parts := splitNonEmpty(s)
	if len(parts) != 2*dim {
		return geom.Box{}, fmt.Errorf("want %d comma-separated floats, got %d", 2*dim, len(parts))
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return geom.Box{}, fmt.Errorf("bounds[%d]: %v", i, err)
		}
		if i < dim {
			lo[i] = v
		} else {
			hi[i-dim] = v
		}
	}
	for d := 0; d < dim; d++ {
		if lo[d] >= hi[d] {
			return geom.Box{}, fmt.Errorf("axis %d: lo %g >= hi %g", d, lo[d], hi[d])
		}
	}
	return geom.NewBox(lo, hi), nil
}
