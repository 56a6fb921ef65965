package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/mathx"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
)

// ShardListener serves the binary shard wire protocol (package shard) over
// a TCP listener, backed by a Service. Each accepted connection is
// synchronous — one frame in, one frame out — matching the router client's
// one-in-flight-per-conn contract. Multi-element requests (several query
// points or items in one frame) are submitted to the Service concurrently,
// so they coalesce into batches exactly like concurrent HTTP requests.
type ShardListener struct {
	svc *Service
	ln  net.Listener
	// ready gates data traffic: while it reports false (WAL replay still
	// running) pings answer Ready=false and data requests are refused with
	// CodeNotReady. nil means always ready.
	ready func() bool
	// syncst reports the shard's replication sync state and accepts resync
	// nudges. nil means permanently synced at generation 0 — correct for a
	// standalone shard with no peers to rebuild from.
	syncst SyncState
	// onMigrate, when set, observes every applied migration commit (staged
	// item count, the adopt batch's metered cost, wall time) — the server
	// wires it to fault.Supervisor.RecordMigration. Set before traffic.
	onMigrate func(items int64, cost pim.Stats, took time.Duration)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SyncState is the replication sync surface a shard exposes over the wire:
// whether it holds every acked write of its hosted cells (pongs carry the
// claim plus a generation that increments on each completed convergence
// pass), and a hook for the router to nudge a fenced-as-stale shard into
// another peer-rebuild pass.
type SyncState interface {
	// Synced returns the shard's own sync claim and its generation.
	Synced() (bool, uint64)
	// OnResync asks for another convergence pass. Evidenced tells the
	// shard the router watched it miss an acked write (the pass must then
	// converge against a peer; a precautionary pass may fall back to local
	// state). It returns the sync generation that proves a pass begun
	// after this call has completed (so the caller can wait out a pass
	// that was already in flight), and whether a pass was scheduled.
	OnResync(evidenced bool) (uint64, bool)
}

// NewShardListener starts serving the shard wire protocol on ln. The
// listener owns ln; Close closes it and every live connection. syncst may
// be nil (standalone shard: always synced, never resyncs).
func NewShardListener(svc *Service, ln net.Listener, ready func() bool, syncst SyncState) *ShardListener {
	sl := &ShardListener{svc: svc, ln: ln, ready: ready, syncst: syncst, conns: map[net.Conn]struct{}{}}
	sl.wg.Add(1)
	go sl.acceptLoop()
	return sl
}

// Addr returns the listener's bound address.
func (sl *ShardListener) Addr() net.Addr { return sl.ln.Addr() }

// SetMigrationObserver installs the migration-commit observer. Call before
// the shard takes traffic; the listener reads it without locking.
func (sl *ShardListener) SetMigrationObserver(fn func(items int64, cost pim.Stats, took time.Duration)) {
	sl.onMigrate = fn
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to exit.
func (sl *ShardListener) Close() error {
	sl.mu.Lock()
	if sl.closed {
		sl.mu.Unlock()
		sl.wg.Wait()
		return nil
	}
	sl.closed = true
	err := sl.ln.Close()
	for c := range sl.conns {
		c.Close()
	}
	sl.mu.Unlock()
	sl.wg.Wait()
	return err
}

func (sl *ShardListener) acceptLoop() {
	defer sl.wg.Done()
	for {
		nc, err := sl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sl.mu.Lock()
		if sl.closed {
			sl.mu.Unlock()
			nc.Close()
			return
		}
		sl.conns[nc] = struct{}{}
		sl.wg.Add(1)
		sl.mu.Unlock()
		go sl.handleConn(nc)
	}
}

func (sl *ShardListener) isReady() bool { return sl.ready == nil || sl.ready() }

// snapStash is one connection's cached cell-snapshot cut. A puller pages
// one cell over one synchronous conn, so caching the cut between pages
// both avoids recomputing (and re-sorting) the whole cell per page —
// O(n²/pageSize) executor work otherwise — and guarantees every page of
// one pull comes from a single consistent cut, which balanced
// insert+delete churn between fresh cuts could defeat (Total stays equal
// while the contents drift). The stash lives on the conn's handler
// goroutine only; no locking.
type snapStash struct {
	valid bool
	cell  int
	snap  CellSnapshot
}

// migStash is one connection's staged migration: the cut MigrateBegin
// pulled, held until MigrateCommit. Like snapStash it lives on the conn's
// handler goroutine only, so a dropped conn discards the stage and a torn
// migration applies nothing — commit is the only frame that touches the
// service.
type migStash struct {
	valid bool
	epoch uint64
	cell  int
	box   geom.Box
	snap  CellSnapshot
}

func (sl *ShardListener) handleConn(nc net.Conn) {
	defer sl.wg.Done()
	defer func() {
		sl.mu.Lock()
		delete(sl.conns, nc)
		sl.mu.Unlock()
		nc.Close()
	}()
	dim := sl.svc.Dim()
	if err := shard.WriteHandshake(nc, dim); err != nil {
		return
	}
	var stash snapStash
	var mig migStash
	for {
		payload, err := shard.ReadFrame(nc)
		if err != nil {
			return // EOF, conn error, or unparseable framing: drop the conn
		}
		reqID, m, err := shard.DecodePayload(payload, dim)
		if err != nil {
			// Structurally corrupt payload: the stream can no longer be
			// trusted, mirror the client's poison-on-error rule.
			return
		}
		resp := sl.dispatch(m, &stash, &mig)
		if _, err := nc.Write(shard.EncodeFrame(reqID, resp, dim)); err != nil {
			return
		}
	}
}

// dispatch executes one decoded request and returns the response message
// (possibly a *shard.RemoteError). stash carries the connection's cached
// cell-snapshot cut across sequential CellSnapshot pages; mig carries its
// staged migration.
func (sl *ShardListener) dispatch(m any, stash *snapStash, mig *migStash) any {
	// Any frame but the next page of the stashed pull ends that pull: a
	// puller that stops early (the rebalancer's strided split sample) and
	// hands the conn back to its pool must not leave a whole-cell cut
	// pinned on it.
	if req, ok := m.(shard.CellSnapshotReq); stash.valid && (!ok || req.Offset == 0 || req.Cell != stash.cell) {
		*stash = snapStash{}
	}
	ready := sl.isReady()
	// Ping, cell snapshots, and resync nudges are exempt from the ready
	// gate: a recovering shard must still report status and serve rebuild
	// pulls from its durable state, and a fenced shard must accept nudges.
	switch m.(type) {
	case shard.Ping, shard.CellSnapshotReq, shard.ResyncReq:
	default:
		if !ready {
			return &shard.RemoteError{Code: shard.CodeNotReady, Msg: "recovery in progress"}
		}
	}
	// While the shard is rebuilding it must keep absorbing writes (the
	// router fans every write to all replicas so the live stream converges)
	// and answering pings, nudges, and stats — but it must refuse anything
	// whose answer depends on holding the complete cell contents: reads,
	// expiry sweeps, and snapshot serving. The router plans around synced
	// replicas, so this gate only fires when its view is momentarily stale;
	// refusing keeps every served answer exact. Migration frames are exempt
	// like updates: an adopt (or a purge — an exact-set to empty) is the
	// rebalancer repairing state, and exact-set semantics make it safe on a
	// rebuilding replica, just like the fanned write stream.
	switch m.(type) {
	case shard.Ping, shard.ResyncReq, shard.UpdateReq, shard.IngestReq, shard.StatsReq,
		shard.MigrateBegin, shard.MigrateCommit:
	default:
		if synced, _ := sl.syncState(); !synced {
			return &shard.RemoteError{Code: shard.CodeNotReady, Msg: "replica rebuilding, not in sync"}
		}
	}
	ctx := context.Background()
	switch req := m.(type) {
	case shard.Ping:
		synced, gen := sl.syncState()
		return shard.Pong{Ready: ready, Size: sl.svc.TreeSize(), Synced: synced, SyncGen: gen}

	case shard.KNNReq:
		results, err := scatter(len(req.Points), func(i int) ([]heapx.Candidate, error) {
			return dropInfo(sl.svc.KNNCandidates(ctx, req.Points[i], req.K))
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.KNNResp{Results: results}

	case shard.RangeReq:
		results, err := scatter(len(req.Boxes), func(i int) ([]core.Item, error) {
			return dropInfo(sl.svc.Range(ctx, req.Boxes[i]))
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.RangeResp{Results: results}

	case shard.UpdateReq:
		// Cluster writes are idempotent (set semantics): the router fans
		// each write to every replica of its cell, and a replica mid-rebuild
		// may receive an item both from the live stream and from a restored
		// peer snapshot. InsertUnique/ignore-absent-Delete make the second
		// application a no-op, so the race cannot double-apply.
		_, err := scatter(len(req.Items), func(i int) (BatchInfo, error) {
			if req.Delete {
				return sl.svc.Delete(ctx, req.Items[i])
			}
			return sl.svc.InsertUnique(ctx, req.Items[i])
		})
		if err != nil {
			// Refused in whole or in part: the error response means "not
			// acked" to the router, which never retries updates blindly.
			return remoteError(err)
		}
		return shard.UpdateResp{Applied: len(req.Items)}

	case shard.JoinReq:
		results, err := scatter(len(req.Points), func(i int) ([]core.Item, error) {
			return dropInfo(sl.svc.Join(ctx, req.Points[i], req.Radius))
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.RangeResp{Results: results}

	case shard.AggReq:
		results, err := scatter(len(req.Boxes), func(i int) (core.BoxAggregate, error) {
			return dropInfo(sl.svc.Aggregate(ctx, req.Boxes[i]))
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.AggResp{Results: results}

	case shard.IngestReq:
		if len(req.ExpireAts) != len(req.Items) {
			return &shard.RemoteError{Code: shard.CodeBadRequest, Msg: "ingest deadline count mismatch"}
		}
		_, err := scatter(len(req.Items), func(i int) (BatchInfo, error) {
			return sl.svc.IngestUnique(ctx, req.Items[i], req.ExpireAts[i])
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.UpdateResp{Applied: len(req.Items)}

	case shard.ExpireReq:
		n, _, err := sl.svc.Expire(ctx, req.Now)
		if err != nil {
			return remoteError(err)
		}
		return shard.ExpireResp{Expired: int64(n)}

	case shard.StatsReq:
		hs := sl.svc.LatencyHistograms()
		names := make([]string, 0, len(hs))
		for k := range hs {
			names = append(names, k)
		}
		sort.Strings(names)
		resp := shard.StatsResp{Kinds: make([]shard.KindLatency, 0, len(names))}
		for _, name := range names {
			h := hs[name]
			kl := shard.KindLatency{Kind: name, Max: h.Max()}
			h.Buckets(func(low, count int64) {
				kl.Buckets = append(kl.Buckets, shard.HistBucket{Low: low, Count: count})
			})
			resp.Kinds = append(resp.Kinds, kl)
		}
		return resp

	case shard.CellSnapshotReq:
		// Offset 0 starts a pull: cut the cell fresh and stash the cut.
		// Later offsets of the same cell serve from the stash (the check
		// above dropped any other), so every page of one pull slices one
		// consistent cut and the executor walks the cell once per pull,
		// not once per page. A continuation with no stash (client
		// reconnected mid-pull, or an out-of-order prober) falls back to a
		// fresh cut; the puller's Total-equality check handles the ensuing
		// inconsistency.
		var snap CellSnapshot
		if stash.valid {
			snap = stash.snap
		} else {
			var err error
			snap, _, err = sl.svc.SnapshotCell(ctx, req.Cell, req.Box)
			if err != nil {
				return remoteError(err)
			}
		}
		total := uint64(len(snap.Items))
		lo := req.Offset
		if lo > total {
			lo = total
		}
		hi := total
		if req.Limit > 0 && lo+uint64(req.Limit) < hi {
			hi = lo + uint64(req.Limit)
		}
		resp := shard.CellSnapshotResp{
			Total:     total,
			Items:     snap.Items[lo:hi],
			ExpireAts: snap.Deadlines[lo:hi],
		}
		if hi < total {
			*stash = snapStash{valid: true, cell: req.Cell, snap: snap}
		} else {
			// Final page: the pull is over, and orphaned expiry entries ride
			// along so the puller can reproduce the expiry heap exactly.
			*stash = snapStash{}
			resp.Orphans, resp.OrphanAts = snap.Orphans, snap.OrphanAts
		}
		return resp

	case shard.MigrateBegin:
		// A fresh Begin replaces any stage this conn had: the rebalancer
		// pins one conn per destination per migration, so an abandoned
		// stage has no owner to resume it. The destination pulls the cut
		// itself, as a peer rebuild does; an empty source stages the empty
		// set (a stray purge).
		*mig = migStash{}
		stage := migStash{valid: true, epoch: req.Epoch, cell: req.Cell, box: req.Box}
		if req.Source != "" {
			src := shard.NewClient(req.Source, sl.svc.Dim())
			var err error
			stage.snap, err = pullCut(src, req.Cell, req.Box, req.PageSize, pullTimeout)
			src.Close()
			if err != nil {
				return &shard.RemoteError{Code: shard.CodeUnavailable, Msg: fmt.Sprintf("migration stage: pull from %s: %v", req.Source, err)}
			}
		}
		*mig = stage
		return shard.MigrateResp{Staged: uint64(len(stage.snap.Items))}

	case shard.MigrateCommit:
		if !mig.valid || mig.epoch != req.Epoch || mig.cell != req.Cell {
			*mig = migStash{}
			return &shard.RemoteError{Code: shard.CodeBadRequest, Msg: "migration commit without matching begin"}
		}
		stage := *mig
		*mig = migStash{} // single-shot: the stage is consumed either way
		start := time.Now()
		changed, info, err := sl.svc.MigrateCell(ctx, req.Cell, stage.box, stage.snap, req.Ops)
		if err != nil {
			return remoteError(err)
		}
		if sl.onMigrate != nil {
			sl.onMigrate(int64(len(stage.snap.Items)), info.Cost, time.Since(start))
		}
		return shard.MigrateResp{Changed: changed}

	case shard.CellChecksumReq:
		// Behind both gates (unlike CellSnapshotReq): a checksum is a claim
		// about the *complete* cell contents, which a recovering or
		// rebuilding shard cannot make. The anti-entropy sweep and the
		// rebuilder both only ask replicas whose pong is Ready and Synced.
		sums, err := scatter(len(req.Cells), func(i int) (shard.CellChecksum, error) {
			return dropInfo(sl.svc.ChecksumCell(ctx, req.Cells[i], req.Boxes[i]))
		})
		if err != nil {
			return remoteError(err)
		}
		return shard.CellChecksumResp{Sums: sums}

	case shard.ResyncReq:
		if sl.syncst == nil {
			// Standalone shard: nothing to resync from; the router must not
			// wait on a generation that will never advance.
			return shard.ResyncResp{Started: false}
		}
		target, started := sl.syncst.OnResync(req.Evidenced)
		return shard.ResyncResp{Started: started, Target: target}

	case shard.AggCellsReq:
		items, _, err := sl.svc.Range(ctx, req.Box)
		if err != nil {
			return remoteError(err)
		}
		// Accumulate only the items owned by this shard's assigned cells.
		// ExactSum is order-independent, so filtering then adding per item
		// merges bit-identically with the other shards' partials.
		agg := core.BoxAggregate{Sums: make([]mathx.ExactSum, sl.svc.Dim())}
		for _, it := range items {
			for _, cell := range req.Cells {
				if cell.ContainsHalfOpen(it.P) {
					agg.Count++
					for d := range it.P {
						agg.Sums[d].Add(it.P[d])
					}
					break
				}
			}
		}
		return shard.AggResp{Results: []core.BoxAggregate{agg}}
	}
	return &shard.RemoteError{Code: shard.CodeBadRequest, Msg: "unexpected request type"}
}

// syncState answers the pong's sync fields: the hook's claim, or the
// standalone default (synced at generation 0) when no hook is installed.
func (sl *ShardListener) syncState() (bool, uint64) {
	if sl.syncst == nil {
		return true, 0
	}
	return sl.syncst.Synced()
}

// scatter runs n sub-operations concurrently (so they coalesce in the
// Service like independent requests) and returns their results in order,
// with every error joined.
func scatter[T any](n int, op func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 1 {
		var err error
		out[0], err = op(0) // the router's common case: no goroutine overhead
		return out, err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = op(i)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// dropInfo keeps a Service call's answer and error, dropping the batch
// info the wire does not carry.
func dropInfo[T any](v T, _ BatchInfo, err error) (T, error) { return v, err }

// remoteError maps a Service error to the wire error taxonomy: transient
// load/fault conditions are retryable CodeUnavailable, shard-side bugs are
// CodeInternal, everything else (dimension mismatch, bad k) is the caller's
// CodeBadRequest.
func remoteError(err error) *shard.RemoteError {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed), errors.Is(err, ErrFault),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &shard.RemoteError{Code: shard.CodeUnavailable, Msg: err.Error()}
	case errors.Is(err, ErrBatchPanic), errors.Is(err, ErrPersist):
		return &shard.RemoteError{Code: shard.CodeInternal, Msg: err.Error()}
	default:
		return &shard.RemoteError{Code: shard.CodeBadRequest, Msg: err.Error()}
	}
}
