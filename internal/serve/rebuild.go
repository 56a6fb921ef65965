package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/shard"
)

// Rebuilder drives peer rebuild for one replicated shard: starting from
// whatever local state survived (possibly nothing — a wiped data dir), it
// pulls every hosted cell from a healthy peer replica over paginated
// CellSnapshot frames and applies each via one atomic RestoreCell, looping
// until a full pass changes nothing. Only then does it claim Synced, which
// is what lets the router route reads here and what gates the HTTP
// /readyz endpoint.
//
// Convergence under live writes: the router fans every write to all
// replicas of its cell — including this one, whose wire listener is up for
// the whole rebuild — and the cluster apply path is idempotent
// (InsertUnique / ignore-absent Delete). So the boot gap this shard missed
// while down is a frozen set only the snapshots can supply, while the live
// stream lands here and on the source identically. A pass that applies an
// empty diff for every cell therefore proves the local state equals the
// source's acked state at the snapshot cut; writes in flight across the
// cut apply idempotently on top on both sides.
//
// If no peer is both ready and synced for longer than Patience, the
// initial run serves the shard's local state: on a cold cluster boot every
// replica starts unsynced and would otherwise deadlock waiting on its
// peers. Nudged resyncs are stricter — see OnResync.
type Rebuilder struct {
	svc *Service
	cfg RebuildConfig

	clients map[int]*shard.Client
	synced  atomic.Bool

	// mu guards the run bookkeeping as one transition: a run completing
	// increments gen and clears inflight atomically, so OnResync's target
	// arithmetic never sees a run both completed (gen counted) and still
	// in flight (inflight set), or neither.
	mu       sync.Mutex
	gen      uint64 // completed convergence runs
	inflight bool   // a run is currently executing
	// resyncTarget is the highest generation any OnResync promised. While
	// gen lags it, Synced reports false even though the synced claim is
	// set: the shard was told it may have missed an acked write, so it
	// must not advertise itself as an authoritative rebuild source (a peer
	// pulling a stale cut would RestoreCell-delete the missed write from
	// its own copy) until a post-nudge run completes.
	resyncTarget uint64
	// pendingEvidenced records whether any not-yet-served nudge was
	// evidenced (the router watched this shard miss an acked write). The
	// run serving those nudges must then converge against a peer — the
	// Patience give-up path is forbidden, because completing it would
	// advance gen to the promised target and unfence the shard with the
	// missed write still absent.
	pendingEvidenced bool

	nudge chan struct{}
	stop  chan struct{}
	done  chan struct{}
}

// RebuildConfig wires a Rebuilder to its cluster slice.
type RebuildConfig struct {
	// Self is this shard's index; Peers[Self] is never dialed.
	Self int
	// Peers holds every shard's wire address, indexed by shard id. An
	// empty address is skipped.
	Peers []string
	// Cells are the cell ids this shard hosts; CellBoxes are the matching
	// half-open partition boxes.
	Cells     []int
	CellBoxes []geom.Box
	// Replicas returns a cell's replica shards in placement order (primary
	// first) — the pull-preference order.
	Replicas func(cell int) []int
	// Dim is the cluster dimensionality (for the wire handshake).
	Dim int
	// PageSize is the per-CellSnapshot page size in items (default 2048).
	PageSize int
	// Timeout bounds each wire call (default pullTimeout).
	Timeout time.Duration
	// Patience is how long a convergence run keeps hunting for an eligible
	// peer before giving up the run (default 5s). The initial boot run and
	// precautionary resyncs then serve local state; a resync nudged for a
	// known missed write instead stays fenced and retries.
	Patience time.Duration
	// PassInterval is the pause between convergence passes (default 100ms):
	// long enough for in-flight writes from the last pass's snapshot window
	// to settle, short enough to converge quickly.
	PassInterval time.Duration
	// OnRebuilt, if set, observes each completed convergence run: how many
	// cells were pulled, how many items arrived over the wire, the exact
	// metered cost of the restore rounds (each labeled
	// fault/rebuild/cell=N), and how long the run took. pimkd-server logs
	// it; the restore batches' totals are the restore-cell kind on /statsz.
	OnRebuilt func(cells, items int64, cost pim.Stats, took time.Duration)
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
}

// NewRebuilder starts the rebuild loop. The initial convergence run begins
// immediately; Synced reports false until it completes.
func NewRebuilder(svc *Service, cfg RebuildConfig) *Rebuilder {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 2048
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = pullTimeout
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 5 * time.Second
	}
	if cfg.PassInterval <= 0 {
		cfg.PassInterval = 100 * time.Millisecond
	}
	r := &Rebuilder{
		svc:     svc,
		cfg:     cfg,
		clients: map[int]*shard.Client{},
		nudge:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.run()
	return r
}

// Synced implements SyncState: the shard's sync claim and its generation.
// The generation changes exactly when a convergence run completes, so a
// router that fenced this shard as stale can tell a fresh convergence from
// the shard merely still believing its pre-fence state. The claim is
// withdrawn the moment a nudge arrives and restored only when the
// generation reaches the promised target — mirroring the router's fence on
// the shard itself, so rebuilding peers (which pick sources by this claim)
// never pull from a replica the router knows to be stale.
func (r *Rebuilder) Synced() (bool, uint64) {
	r.mu.Lock()
	gen := r.gen
	caughtUp := gen >= r.resyncTarget
	r.mu.Unlock()
	return r.synced.Load() && caughtUp, gen
}

// OnResync implements SyncState: it schedules another convergence run (the
// router nudges a shard it has fenced as stale) and returns the generation
// at which the nudge is proven served. A run already in flight may have
// snapshotted its peers before whatever write the router saw this shard
// miss, so the target is current generation + in-flight run (if any) + the
// nudged run: any run starting after this call begins after the miss, and
// the generation reaching the target proves such a run completed.
//
// evidenced=true marks a known miss: the runs serving this nudge must
// converge against an eligible peer — they never complete via the Patience
// give-up path, so the generation cannot reach the target (and neither the
// router's fence nor the local sync claim can lift) until the shard
// actually caught up.
func (r *Rebuilder) OnResync(evidenced bool) (uint64, bool) {
	r.mu.Lock()
	target := r.gen + 1
	if r.inflight {
		target++
	}
	if target > r.resyncTarget {
		r.resyncTarget = target
	}
	r.pendingEvidenced = r.pendingEvidenced || evidenced
	r.mu.Unlock()
	select {
	case r.nudge <- struct{}{}:
	default: // one is already pending; it too starts after this call
	}
	return target, true
}

// Close stops the loop and releases the peer connections.
func (r *Rebuilder) Close() {
	close(r.stop)
	<-r.done
	for _, c := range r.clients {
		c.Close()
	}
}

func (r *Rebuilder) run() {
	defer close(r.done)
	// The initial run may complete via the Patience path: on a cold boot
	// nothing has been acked without this shard, so its durable state is
	// authoritative when no peer turns up.
	r.convergeRun(false)
	r.synced.Store(true)
	for {
		select {
		case <-r.stop:
			return
		case <-r.nudge:
			// Serve every nudge delivered so far: an evidenced one forbids
			// the Patience give-up for this run (grab-and-clear, so a nudge
			// arriving mid-run keeps its own flag for the next run).
			r.mu.Lock()
			evidenced := r.pendingEvidenced
			r.pendingEvidenced = false
			r.mu.Unlock()
			r.convergeRun(evidenced)
		}
	}
}

// convergeRun brackets converge with the (gen, inflight) bookkeeping
// OnResync's target computation depends on: completing a run increments
// the generation and clears the in-flight flag in one transition.
//
// With mustConverge set (an evidenced nudge: the router watched this shard
// miss an acked write) the run completes only on a clean convergence pass
// — a Patience give-up retries instead of counting, because advancing the
// generation would let the router unfence a replica that never caught up,
// serve reads missing the acked write, and (worse) let a rebuilding peer
// pull the stale cut and RestoreCell-delete the write from the cluster's
// only remaining copy.
func (r *Rebuilder) convergeRun(mustConverge bool) {
	r.mu.Lock()
	r.inflight = true
	r.mu.Unlock()
	for !r.converge() && mustConverge {
		r.logf("rebuild: known missed write, staying fenced until a peer serves a clean pass")
		select {
		case <-r.stop:
			r.mu.Lock()
			r.inflight = false
			r.mu.Unlock()
			return
		case <-time.After(r.cfg.PassInterval):
		}
	}
	r.mu.Lock()
	r.gen++
	r.inflight = false
	r.mu.Unlock()
}

// hasPeers reports whether any hosted cell has a dialable peer replica.
// Without one (standalone shard, or replication factor 1) there is nothing
// to rebuild from and the shard serves its local state immediately instead
// of waiting out Patience.
func (r *Rebuilder) hasPeers() bool {
	for _, cell := range r.cfg.Cells {
		for _, p := range r.cfg.Replicas(cell) {
			if p != r.cfg.Self && p >= 0 && p < len(r.cfg.Peers) && r.cfg.Peers[p] != "" {
				return true
			}
		}
	}
	return false
}

// converge loops rebuild passes until one full pass pulls every hosted
// cell and changes nothing (returns true), or until Patience expires
// without a single fully-pulled pass (no eligible peer: returns false, the
// caller decides whether local state may be served).
func (r *Rebuilder) converge() bool {
	if !r.hasPeers() {
		// Standalone shard or replication factor 1: nothing to pull from,
		// the local state is authoritative by definition.
		return true
	}
	start := time.Now()
	deadline := start.Add(r.cfg.Patience)
	var cells, items int64
	var cost pim.Stats
	for pass := 1; ; pass++ {
		pulled, changed, pulledItems, passCost := r.pass()
		cells += pulled
		items += pulledItems
		cost = cost.Add(passCost)
		if pulled == int64(len(r.cfg.Cells)) {
			if !changed {
				r.logf("rebuild converged: pass %d clean (%d cells, %d items total, %v)",
					pass, cells, items, time.Since(start).Round(time.Millisecond))
				if r.cfg.OnRebuilt != nil {
					r.cfg.OnRebuilt(cells, items, cost, time.Since(start))
				}
				return true
			}
			deadline = time.Now().Add(r.cfg.Patience) // progress: keep going
		} else if time.Now().After(deadline) {
			r.logf("rebuild: no eligible peer for %v (%d cells pulled)",
				r.cfg.Patience, pulled)
			if r.cfg.OnRebuilt != nil && cells > 0 {
				r.cfg.OnRebuilt(cells, items, cost, time.Since(start))
			}
			return false
		}
		select {
		case <-r.stop:
			return false
		case <-time.After(r.cfg.PassInterval):
		}
	}
}

// pass pulls and restores every hosted cell once. It reports how many
// cells were successfully pulled, whether any restore changed local state,
// how many items arrived over the wire, and the metered cost of the
// restore rounds.
func (r *Rebuilder) pass() (pulled int64, changed bool, items int64, cost pim.Stats) {
	for i, cell := range r.cfg.Cells {
		select {
		case <-r.stop:
			return pulled, changed, items, cost
		default:
		}
		snap, ok, identical := r.pullCell(cell, r.cfg.CellBoxes[i])
		if !ok {
			continue
		}
		if identical {
			// Checksum fast path: the peer's digest matched ours, so a
			// restore would apply an empty diff. The cell counts as pulled
			// and unchanged without shipping its contents — a converged
			// rebuild's final verification pass costs one checksum per cell
			// instead of re-streaming the full share.
			pulled++
			continue
		}
		chg, info, err := r.svc.RestoreCell(context.Background(), cell, r.cfg.CellBoxes[i], snap)
		if err != nil {
			r.logf("rebuild: restore cell %d: %v", cell, err)
			continue
		}
		pulled++
		items += int64(len(snap.Items))
		cost = cost.Add(info.Cost)
		if chg {
			changed = true
		}
	}
	return pulled, changed, items, cost
}

// pullCell streams one cell from the first eligible peer in placement
// order. A peer is eligible when its pong reports Ready and Synced — and
// because a nudged peer withdraws its Synced claim until it provably
// caught up (see Synced), a replica the router fenced for missing an
// acked write stops being a pull source as soon as the nudge reaches it,
// rather than advertising its stale cut as authoritative. A wire error
// mid-stream abandons that peer entirely — nothing has been applied, so a
// torn stream can never leave a partially-restored cell.
//
// Before streaming, the peer's cell checksum is compared against the local
// one: a match means a restore would apply an empty diff, and pullCell
// reports the cell identical (pulled, no snapshot) instead of paying the
// paginated transfer. Writes landing between the two checksum cuts are
// fanned to both replicas and apply idempotently, so the skip proves
// convergence at the cut exactly as an empty restore diff would.
func (r *Rebuilder) pullCell(cell int, box geom.Box) (snap CellSnapshot, ok, identical bool) {
	for _, p := range r.cfg.Replicas(cell) {
		if p == r.cfg.Self || p < 0 || p >= len(r.cfg.Peers) || r.cfg.Peers[p] == "" {
			continue
		}
		c := r.client(p)
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
		pong, err := c.Ping(ctx)
		cancel()
		if err != nil || !pong.Ready || !pong.Synced {
			continue
		}
		if local, _, err := r.svc.ChecksumCell(context.Background(), cell, box); err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
			sums, err := c.CellChecksums(ctx, []int{cell}, []geom.Box{box})
			cancel()
			if err == nil && sums[0] == local {
				return CellSnapshot{}, true, true
			}
		}
		snap, err := pullCut(c, cell, box, r.cfg.PageSize, r.cfg.Timeout)
		if err == nil {
			return snap, true, false
		}
		r.logf("rebuild: snapshot cell %d from %s: %v", cell, c.Addr(), err)
	}
	return CellSnapshot{}, false, false
}

// pullTimeout bounds each wire call of a cell pull: the rebuilder's
// default, and the per-page bound of a migration destination's pull.
const pullTimeout = 5 * time.Second

// pullCut pulls one cell's box off the shard behind c over one consistent
// cut (shard.Client.PullCell); a torn pull returns nothing. Peer rebuild
// and migration staging both move a cell this way.
func pullCut(c *shard.Client, cell int, box geom.Box, pageSize int, timeout time.Duration) (CellSnapshot, error) {
	cut, err := c.PullCell(context.Background(), timeout, cell, box, pageSize)
	return CellSnapshot{Items: cut.Items, Deadlines: cut.ExpireAts, Orphans: cut.Orphans, OrphanAts: cut.OrphanAts}, err
}

func (r *Rebuilder) client(p int) *shard.Client {
	if c, ok := r.clients[p]; ok {
		return c
	}
	c := shard.NewClient(r.cfg.Peers[p], r.cfg.Dim)
	r.clients[p] = c
	return c
}

func (r *Rebuilder) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Ensure Rebuilder satisfies the listener's sync surface.
var _ SyncState = (*Rebuilder)(nil)
