// Command pimkd-server exposes a PIM-kd-tree over HTTP through the
// batch-coalescing service layer (internal/serve): concurrent singleton
// requests are admitted with backpressure, coalesced into homogeneous
// batches of up to -max-batch requests (sealed as soon as the executor is
// free, or after -linger while it is busy), executed against the
// cost-metered PIM machine with update batches serialized into their own
// epochs, and answered with per-batch PIM-Model cost attribution.
//
//	pimkd-server -addr :8080 -n 100000 -dim 2 -p 64 -seed 1
//
//	curl 'localhost:8080/knn?p=0.5,0.5&k=8'
//	curl 'localhost:8080/lookup?p=0.5,0.5'
//	curl 'localhost:8080/range?lo=0.1,0.1&hi=0.2,0.2'
//	curl -X POST 'localhost:8080/insert?id=123456&p=0.3,0.7'
//	curl -X POST 'localhost:8080/delete?id=123456&p=0.3,0.7'
//	curl 'localhost:8080/statsz'
//	curl 'localhost:8080/tracez?k=5'          # with -trace-cap > 0
//	curl 'localhost:8080/tracez?format=perfetto' -o trace.json
//	curl 'localhost:8080/debug/pprof/profile?seconds=10' -o cpu.out   # with -pprof
//
// All randomness (dataset, tree placement salt, service-layer sampling) is
// derived from -seed, so a replayed request trace is deterministic.
//
// Robustness: -fault-seed > 0 arms a deterministic chaos plan (module
// crashes, stalls, transient send failures at the -fault-crash /
// -fault-stall / -fault-send rates) against the live machine, with a
// fault.Supervisor rebuilding crashed modules' shards from the host-side
// tree and retrying in place; -round-deadline converts genuine stalls into
// typed round timeouts; -shed-highwater enables 503 + Retry-After load
// shedding; SIGINT/SIGTERM drain gracefully (admitted requests complete).
//
//	pimkd-server -fault-seed 7 -fault-crash 0.001 -shed-highwater 768
//
// Durability: -data-dir turns on snapshot + write-ahead-log persistence.
// Every acknowledged update batch is appended to the WAL before it commits
// (with -fsync, power-fail-safe); a background checkpointer folds the log
// into a snapshot every -checkpoint-every write batches or
// -checkpoint-interval of wall time; on startup the latest snapshot is
// loaded and the WAL tail replayed (visible on /persistz and in the round
// trace under persist/load and persist/replay); SIGINT/SIGTERM write a final
// checkpoint after draining.
//
//	pimkd-server -data-dir /var/lib/pimkd -fsync -checkpoint-every 128
//	curl 'localhost:8080/persistz'
//
// Readiness: /healthz answers the moment the process binds (liveness);
// /readyz stays 503 until recovery, WAL replay, and the initial build have
// completed and the service is accepting traffic.
//
// Clustering: -shard-addr additionally serves the compact binary shard wire
// protocol, letting a pimkd-router run this server as one cell of a
// scatter/gather cluster (see cmd/pimkd-router). The wire listener starts
// only after readiness.
//
//	pimkd-server -addr :8081 -shard-addr :9081 -data-dir /var/lib/pimkd/s0
//
// Replication: in a replicated cluster (pimkd-router -replication R > 1)
// each shard also runs a peer Rebuilder: give it its own index with
// -cluster-self, every shard's wire address with -cluster-peers, and the
// same -replication / -cluster-bounds the router uses. On startup — and
// whenever the router fences it as stale — the shard streams its hosted
// cells from a healthy replica over paginated snapshot frames (metered
// rounds labeled fault/rebuild/cell=N, folded into the supervisor's stats)
// and reports in-sync only once a full pass changes nothing, so a shard
// that lost its data dir rebuilds from its peers and /readyz flips only
// once it is caught up.
//
//	pimkd-server -addr :8082 -shard-addr :9082 -data-dir /var/lib/pimkd/s1 -n 0 \
//	    -cluster-self 1 -cluster-peers localhost:9081,localhost:9082,localhost:9083
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/fault"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
	"pimkd/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		n        = flag.Int("n", 1<<17, "initial uniform points to index")
		dim      = flag.Int("dim", 2, "point dimension")
		p        = flag.Int("p", 64, "PIM modules")
		cacheM   = flag.Int("cache", 1<<22, "CPU cache size in words")
		leaf     = flag.Int("leaf", 8, "leaf bucket capacity")
		seed     = flag.Int64("seed", 1, "seed for dataset, tree, and service randomness")
		maxBatch = flag.Int("max-batch", 256, "coalescing batch cap S")
		linger   = flag.Duration("linger", 2*time.Millisecond, "max linger of a partial batch while the executor is busy (an idle executor seals at once)")
		pending  = flag.Int("max-pending", 0, "admission limit (0 = 4·max-batch)")
		traceCap = flag.Int("trace-cap", 0, "round-trace ring capacity; > 0 enables /tracez")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		verbose  = flag.Bool("v", false, "log every executed batch")

		shardAddr = flag.String("shard-addr", "", "binary shard wire protocol listen address for a cluster router (empty = disabled)")

		clusterSelf   = flag.Int("cluster-self", -1, "this shard's index in -cluster-peers; enables peer rebuild (-1 = standalone)")
		clusterPeers  = flag.String("cluster-peers", "", "comma-separated shard wire addresses of the whole cluster, indexed by shard id")
		clusterBounds = flag.String("cluster-bounds", "", "partition bounds as lo...,hi... (2*dim floats), matching the router's -bounds; default unit cube")
		replication   = flag.Int("replication", 2, "cluster replication factor, matching the router's -replication")
		rebuildWait   = flag.Duration("rebuild-patience", 5*time.Second, "how long a rebuild pass hunts for an eligible peer before serving local state")

		dataDir   = flag.String("data-dir", "", "durability directory (snapshots + write-ahead log); empty = volatile")
		fsync     = flag.Bool("fsync", false, "fsync every WAL append (power-fail-safe acks; slower)")
		ckptEvery = flag.Int("checkpoint-every", 256, "checkpoint after this many write batches (-1 = never by count)")
		ckptIntvl = flag.Duration("checkpoint-interval", 30*time.Second, "checkpoint after this much wall time (-1s = never by time)")

		faultSeed  = flag.Int64("fault-seed", 0, "arm the deterministic chaos plan with this seed (0 = off)")
		faultCrash = flag.Float64("fault-crash", 0.0005, "per-(round,module) crash probability (with -fault-seed)")
		faultStall = flag.Float64("fault-stall", 0.001, "per-(round,module) stall probability (with -fault-seed)")
		stallDelay = flag.Duration("fault-stall-delay", time.Millisecond, "injected stall duration")
		faultSend  = flag.Float64("fault-send", 0.001, "per-(round,module) transient send-failure probability")
		deadline   = flag.Duration("round-deadline", 0, "per-round wall deadline; stalls beyond it become typed RoundTimeouts (0 = none)")
		shedHW     = flag.Int("shed-highwater", 0, "load-shed (503 + Retry-After) above this many held admission slots (0 = off)")
		retryTrans = flag.Int("retry-transient", 0, "read-batch retries after a transient fault (0 = default 2, -1 = off)")
	)
	flag.Parse()

	// The HTTP listener binds before recovery so orchestrators can poll
	// readiness during a long WAL replay: /healthz answers "ok" the moment
	// the process is up (liveness), while /readyz stays 503 until the tree
	// is recovered, built, and serving. The handler is swapped atomically
	// once the service is live.
	ready := &atomic.Bool{}
	var handler atomic.Value // http.Handler
	boot := http.NewServeMux()
	boot.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	boot.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "starting: recovery in progress", http.StatusServiceUnavailable)
	})
	boot.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "starting: recovery in progress", http.StatusServiceUnavailable)
	})
	handler.Store(http.Handler(boot))
	server := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	go func() {
		log.Printf("listening on %s (readiness pending)", *addr)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	mach := pim.NewMachine(*p, *cacheM)
	treeCfg := core.Config{Dim: *dim, Seed: *seed, LeafSize: *leaf}

	// With -data-dir the tree comes from the durability layer: recover the
	// latest snapshot + WAL tail if present, otherwise build fresh and
	// checkpoint the bulk load so it is immediately recoverable. Without it,
	// state is volatile exactly as before.
	var (
		store    *persist.Store
		tree     *core.Tree
		recovery persist.RecoveryStats
	)
	if *dataDir != "" {
		var err error
		store, tree, recovery, err = persist.Open(*dataDir, persist.Options{
			Machine: mach,
			Tree:    treeCfg,
			Fsync:   *fsync,
		})
		if err != nil {
			log.Fatalf("persist: %v", err)
		}
		if recovery.Recovered {
			log.Printf("recovered %d items from %s: snapshot lsn=%d (%d items), replayed %d records / %d items (comm %d words, %v), torn tail %d bytes",
				tree.Size(), *dataDir, recovery.SnapshotLSN, recovery.SnapshotItems,
				recovery.ReplayRecords, recovery.ReplayItems,
				recovery.ReplayCost.Communication, recovery.ReplayWall.Round(time.Millisecond),
				recovery.TornBytes)
		}
	} else {
		tree = core.New(treeCfg, mach)
	}

	if tree.Size() == 0 {
		log.Printf("building PIM-kd-tree: n=%d dim=%d P=%d seed=%d", *n, *dim, *p, *seed)
		pts := workload.Uniform(*n, *dim, *seed)
		items := make([]core.Item, len(pts))
		for i, pt := range pts {
			items[i] = core.Item{P: pt, ID: int32(i)}
		}
		tree.Build(items)
		build := mach.Stats()
		log.Printf("built: %d items, height %d, build comm %d words (%0.1f/point)",
			tree.Size(), tree.Height(), build.Communication, float64(build.Communication)/float64(*n))
		if store != nil {
			// The bulk load never touches the WAL; checkpoint it so a crash
			// right after startup still recovers the full initial state.
			if err := store.Checkpoint(tree); err != nil {
				log.Fatalf("initial checkpoint: %v", err)
			}
			log.Printf("initial checkpoint written to %s", *dataDir)
		}
	}

	// Arm fault injection only after the build: the chaos window opens at
	// the current round sequence, so construction is never perturbed and a
	// given (-seed, -fault-seed) pair replays the identical fault schedule.
	var sup *fault.Supervisor
	if *deadline > 0 {
		mach.SetRoundDeadline(*deadline)
	}
	if *faultSeed > 0 {
		plan := fault.Plan{
			Seed:         *faultSeed,
			CrashProb:    *faultCrash,
			StallProb:    *faultStall,
			StallDelay:   *stallDelay,
			SendFailProb: *faultSend,
			FirstRound:   mach.RoundSeq() + 1,
		}
		mach.SetInjector(plan.Injector())
		sup = fault.NewSupervisor(fault.SupervisorConfig{
			OnEvent: func(ev fault.Event) {
				log.Printf("fault: round=%d module=%d kind=%s attempt=%d recovered=%v rebuilt=%d pts comm=%d",
					ev.Round, ev.Module, ev.Kind, ev.Attempt, ev.Recovered, ev.RebuiltPoints, ev.Cost.Communication)
			},
		}, mach, tree)
		sup.Attach()
		log.Printf("chaos armed: seed=%d crash=%g stall=%g(%v) send=%g from round %d",
			*faultSeed, *faultCrash, *faultStall, *stallDelay, *faultSend, plan.FirstRound)
	}
	// Fold a process-level recovery into the supervisor's fault story, so
	// one place reports both module rebuilds and startup replay.
	if sup != nil && recovery.Recovered {
		sup.RecordProcessRecovery(int64(recovery.ReplayRecords), int64(recovery.ReplayItems), recovery.ReplayCost)
	}

	cfg := serve.Config{
		MaxBatch:           *maxBatch,
		MaxLinger:          *linger,
		MaxPending:         *pending,
		Seed:               *seed,
		TraceCapacity:      *traceCap,
		ShedHighWater:      *shedHW,
		RetryTransient:     *retryTrans,
		Persist:            store,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptIntvl,
	}
	if *verbose {
		cfg.OnBatch = func(r serve.BatchRecord) {
			log.Printf("batch epoch=%d kind=%s size=%d sealed=%s linger=%v comm=%d balance=%.2f",
				r.Epoch, r.Kind, r.Size, r.SealedBy, r.Linger.Round(time.Microsecond),
				r.Cost.Communication, r.CommBalance)
		}
	}
	svc := serve.New(cfg, tree)

	// Peer rebuild: with -cluster-self/-cluster-peers this shard derives its
	// hosted cells from the same placement arithmetic the router uses and
	// pulls them from replica peers — on startup (a wiped -data-dir streams
	// back over the wire) and whenever the router nudges it to resync.
	var rebuilder *serve.Rebuilder
	if *clusterSelf >= 0 || *clusterPeers != "" {
		peers := splitNonEmpty(*clusterPeers)
		if *clusterSelf < 0 || *clusterSelf >= len(peers) {
			log.Fatalf("-cluster-self %d out of range for %d -cluster-peers", *clusterSelf, len(peers))
		}
		if *shardAddr == "" {
			log.Fatal("-cluster-peers requires -shard-addr (peers pull over the shard wire protocol)")
		}
		box, err := parseBounds(*clusterBounds, *dim)
		if err != nil {
			log.Fatalf("bad -cluster-bounds: %v", err)
		}
		part, err := shard.NewUniformPartition(*dim, len(peers), box)
		if err != nil {
			log.Fatalf("cluster partition: %v", err)
		}
		pl := shard.NewPlacement(len(peers), *replication)
		cells := pl.CellsOf(*clusterSelf)
		boxes := make([]geom.Box, len(cells))
		for i, c := range cells {
			boxes[i] = part.Cell(c)
		}
		if sup == nil {
			// Rebuild accounting reports through the supervisor even when
			// chaos is not armed; without Attach it only aggregates stats.
			sup = fault.NewSupervisor(fault.SupervisorConfig{}, mach, tree)
		}
		acct := sup
		rebuilder = serve.NewRebuilder(svc, serve.RebuildConfig{
			Self:      *clusterSelf,
			Peers:     peers,
			Cells:     cells,
			CellBoxes: boxes,
			Replicas:  pl.Replicas,
			Dim:       *dim,
			Patience:  *rebuildWait,
			OnRebuilt: func(cells, items int64, cost pim.Stats, took time.Duration) {
				log.Printf("peer rebuild converged: %d cells, %d items over the wire, comm %d words, %v",
					cells, items, cost.Communication, took.Round(time.Millisecond))
				acct.RecordPeerRebuild(cells, items, cost, took)
			},
			Logf: log.Printf,
		})
		log.Printf("peer rebuild armed: shard %d of %d, replication %d, hosted cells %v",
			*clusterSelf, len(peers), pl.Replication(), cells)
	}

	full := http.NewServeMux()
	full.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// A replicated shard is ready only once in sync: it may be serving
		// rebuild pulls and absorbing writes, but reads would be inexact.
		if rebuilder != nil {
			if synced, _ := rebuilder.Synced(); !synced {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "replica rebuilding from peers", http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	full.Handle("/", serve.NewHandler(svc))
	if *pprofOn {
		// Live profiling of the serving hot paths: wall-clock CPU profiles
		// via /debug/pprof/profile, heap via /debug/pprof/heap.
		full.HandleFunc("/debug/pprof/", httppprof.Index)
		full.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		full.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		full.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		full.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		log.Printf("pprof mounted at %s/debug/pprof/", *addr)
	}
	ready.Store(true)
	handler.Store(http.Handler(full))
	log.Printf("serving on %s (S=%d, linger=%v)", *addr, *maxBatch, *linger)

	// With -shard-addr the server also speaks the binary shard wire protocol
	// (package shard) so a pimkd-router can run it as one cell of a cluster.
	// The listener starts only after readiness, so a router probe succeeding
	// implies recovery is complete.
	var shardLn *serve.ShardListener
	if *shardAddr != "" {
		ln, err := net.Listen("tcp", *shardAddr)
		if err != nil {
			log.Fatalf("shard listener: %v", err)
		}
		var syncst serve.SyncState
		if rebuilder != nil {
			syncst = rebuilder
		}
		shardLn = serve.NewShardListener(svc, ln, ready.Load, syncst)
		// Migration adopts (the router's online rebalancer moving a cell
		// region here) report through the supervisor beside the fault rungs.
		if sup == nil {
			sup = fault.NewSupervisor(fault.SupervisorConfig{}, mach, tree)
		}
		migAcct := sup
		shardLn.SetMigrationObserver(func(items int64, cost pim.Stats, took time.Duration) {
			log.Printf("migration adopt applied: %d items, comm %d words, %v",
				items, cost.Communication, took.Round(time.Millisecond))
			migAcct.RecordMigration(items, cost, took)
		})
		log.Printf("shard wire protocol on %s", shardLn.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down (draining admitted requests)")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// The wire listener closes before the service so no router request can
	// arrive after svc.Close started draining.
	if shardLn != nil {
		_ = shardLn.Close()
	}
	// The rebuilder stops after the wire listener (no more resync nudges can
	// arrive) and before the service drains, since a rebuild pass in flight
	// submits restore batches through svc.
	if rebuilder != nil {
		rebuilder.Close()
	}
	// Close order matters: svc.Close drains every admitted request, flushes
	// in-flight checkpoints, and syncs the WAL; only then is the store
	// quiescent. A final checkpoint folds the whole log into one snapshot so
	// the next start replays nothing.
	_ = svc.Close()
	if store != nil {
		if err := store.Checkpoint(tree); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Printf("final checkpoint written (lsn=%d)", store.LSN())
		}
		if err := store.Close(); err != nil {
			log.Printf("persist close: %v", err)
		}
	}

	snap := svc.Metrics()
	fmt.Printf("served %d requests in %d batches (mean batch %.1f) across %d epochs\n",
		snap.TotalRequests, snap.TotalBatches, snap.MeanBatchSize, snap.Epochs)
	for _, k := range snap.Kinds {
		fmt.Printf("  %-7s req=%-7d batches=%-6d mean=%.1f comm/req=%.1f balance=%.2f\n",
			k.Kind, k.Requests, k.Batches, k.MeanBatchSize, k.CommPerRequest, k.MeanCommBalance)
	}
	rb := snap.Robustness
	if rb.Sheds+rb.CanceledRequests+rb.BatchRetries+rb.BatchFaults+rb.BatchPanics > 0 {
		fmt.Printf("robustness: sheds=%d canceled=%d batch retries=%d faults=%d panics=%d\n",
			rb.Sheds, rb.CanceledRequests, rb.BatchRetries, rb.BatchFaults, rb.BatchPanics)
	}
	if sup != nil {
		fs := sup.Stats()
		fmt.Printf("supervisor: crashes=%d stalls=%d recoveries=%d gave up=%d rebuilt %d nodes / %d points, recovery comm=%d words\n",
			fs.Crashes, fs.Stalls, fs.Recoveries, fs.GaveUp, fs.RebuiltNodes, fs.RebuiltPoints, fs.RecoveryCost.Communication)
		if fs.PeerRebuilds > 0 {
			fmt.Printf("peer rebuild: %d runs pulled %d cells / %d items from replicas, comm=%d words, %v converging\n",
				fs.PeerRebuilds, fs.RebuiltCells, fs.PulledItems, fs.RebuildCost.Communication,
				fs.RebuildTimeNS.Round(time.Millisecond))
		}
		if fs.MigrateAdopts > 0 {
			fmt.Printf("rebalance: %d migration adopts applied %d items, comm=%d words, %v applying\n",
				fs.MigrateAdopts, fs.MigratedItems, fs.MigrateCost.Communication,
				fs.MigrateTimeNS.Round(time.Millisecond))
		}
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

// parseBounds parses "lo0,...,lo(d-1),hi0,...,hi(d-1)"; empty means the unit
// cube. Must match the router's parsing so both sides derive identical cell
// boxes from identical flags.
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
