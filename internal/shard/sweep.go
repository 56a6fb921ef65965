package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"pimkd/internal/geom"
)

// Anti-entropy sweep: the write path only fences replicas it watched miss
// an acked write, so a replica that diverges without ever missing an ack —
// disk corruption, a latent apply bug, a full-cluster restart losing a
// torn tail on one copy — would serve wrong answers forever. The sweep
// closes that hole: every SweepInterval the router asks every eligible
// replica of every cell for a cell checksum (count + order-independent
// digest over the cell's full replicated state, hashed shard-side from one
// metered snapshot-cell read) and compares the copies.
//
// A mismatch is never judged from one sample. Divergence observed in the
// first sample is re-sampled after SweepSettle, and only replicas whose
// checksum is IDENTICAL across both samples participate in the verdict: a
// replica still absorbing an in-flight fanned write changes its digest
// between samples and abstains, so a stable disagreement is genuine
// divergence, not write-propagation skew — the zero-false-positive guard.
// (A cell under sustained writes keeps changing everyone's digest and the
// verdict defers to a later sweep; divergence there is still caught the
// first time the cell goes quiet for one settle window.)
//
// Among the stable replicas the majority checksum wins; a tie breaks to
// the checksum held by the earliest replica in placement order. Losers are
// fenced exactly like a watched missed write — markStale(evidenced=true)
// plus an immediate resync nudge — and heal through the existing
// CellSnapshot/RestoreCell + resync-generation machinery: the fence lifts
// only when a convergence pass that began after the fence completes. At
// R=2 a tie is information-theoretically unavoidable; the placement-order
// break means a corrupted placement-first replica wins the vote, which is
// the documented residual risk of two-way replication (DESIGN.md §11).
func (r *Router) sweepLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
			r.sweepOnce()
		}
	}
}

// CellSweepStatus is one cell's most recent anti-entropy result, surfaced
// in /shardz.
type CellSweepStatus struct {
	Cell int `json:"cell"`
	// Replicas is how many replicas answered the checksum probe.
	Replicas int `json:"replicas_checked"`
	// Mismatch reports whether the first sample disagreed; Fenced lists the
	// replicas the confirmation pass evidenced-fenced (empty when the
	// disagreement was unstable — in-flight writes — or healed by itself).
	Mismatch bool  `json:"mismatch"`
	Fenced   []int `json:"fenced,omitempty"`
}

// SweepStatus returns the last sweep's per-cell results (nil before the
// first sweep completes).
func (r *Router) SweepStatus() []CellSweepStatus {
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	out := make([]CellSweepStatus, len(r.sweepCells))
	copy(out, r.sweepCells)
	return out
}

// sweepOnce runs one full anti-entropy round: sample every cell, confirm
// suspected mismatches after the settle window, fence stable minorities.
func (r *Router) sweepOnce() {
	// A sweep round must see one stable geometry: while a migration is in
	// flight, the moving region's replicas are legitimately mid-divergence,
	// so the round is skipped rather than risking a false evidenced fence.
	// Pending PURGES do not pause the sweep: a queued stray region is by
	// construction outside every hosted box of its holder (splits only
	// shrink hosted boxes, and the planner never places a new cell on a
	// dirty shard), so hosted-cell digests cannot see it — and a purge
	// stranded on a dead shard must not disable divergence detection
	// cluster-wide.
	if r.migrating() {
		return
	}
	lay := r.lay.Load()
	r.m.sweeps.Add(1)
	cells := make([]int, lay.pl.NumCells())
	for i := range cells {
		cells[i] = i
	}
	first := r.sampleChecksums(lay, cells)

	rows := make([]CellSweepStatus, len(cells))
	var suspects []int
	for _, cell := range cells {
		rows[cell] = CellSweepStatus{Cell: cell, Replicas: len(first[cell])}
		if !checksumsAgree(first[cell]) {
			rows[cell].Mismatch = true
			suspects = append(suspects, cell)
		}
	}
	if len(suspects) > 0 {
		select {
		case <-r.closed:
			return
		case <-time.After(r.cfg.SweepSettle):
		}
		if r.lay.Load() != lay {
			// The geometry flipped during the settle wait: the re-sample
			// would compare different cell boxes (and a destination's new
			// content against a source's stray). Abandon the round.
			return
		}
		second := r.sampleChecksums(lay, suspects)
		for _, cell := range suspects {
			rows[cell].Fenced = r.judgeCell(lay, cell, first[cell], second[cell])
		}
	}
	r.sweepMu.Lock()
	r.sweepCells = rows
	r.sweepMu.Unlock()
}

// sampleChecksums asks every currently eligible replica of the given cells
// for its checksums — one wire call per shard, covering all its requested
// cells. Unreachable or refusing shards simply drop out of the sample (a
// missing answer can never be judged divergent).
func (r *Router) sampleChecksums(lay *layout, cells []int) map[int]map[int]CellChecksum {
	byShard := map[int][]int{}
	for _, cell := range cells {
		for _, rep := range lay.pl.Replicas(cell) {
			if r.eligible(r.shards[rep]) {
				byShard[rep] = append(byShard[rep], cell)
			}
		}
	}
	sums, _ := r.probeChecksums(context.Background(), lay, byShard)
	out := map[int]map[int]CellChecksum{}
	for rep, shardSums := range sums {
		for i, cell := range byShard[rep] {
			if out[cell] == nil {
				out[cell] = map[int]CellChecksum{}
			}
			out[cell][rep] = shardSums[i]
		}
	}
	return out
}

// probeChecksums asks each shard in byShard for the checksums of its listed
// cells: one CellChecksums call per shard, all in parallel, each through
// callShard so a probe counts for or against the shard's health like any
// other call. It returns the answering shards' sums (parallel to their
// cells) and one of the failed calls' errors, if any failed.
func (r *Router) probeChecksums(ctx context.Context, lay *layout, byShard map[int][]int) (map[int][]CellChecksum, error) {
	out := map[int][]CellChecksum{}
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for rep, cells := range byShard {
		wg.Add(1)
		go func() {
			defer wg.Done()
			boxes := make([]geom.Box, len(cells))
			for i, cell := range cells {
				boxes[i] = lay.part.Cell(cell)
			}
			sh := r.shards[rep]
			v, err := r.callShard(ctx, sh, func(cctx context.Context) (any, error) {
				return sh.client.CellChecksums(cctx, cells, boxes)
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				out[rep] = v.([]CellChecksum)
			case firstErr == nil:
				firstErr = err
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// checksumsAgree reports whether all sampled replicas of a cell answered
// the same checksum (vacuously true below two answers).
func checksumsAgree(sums map[int]CellChecksum) bool {
	var ref CellChecksum
	n := 0
	for _, s := range sums {
		if n == 0 {
			ref = s
		} else if s != ref {
			return false
		}
		n++
	}
	return true
}

// judgeCell confirms one suspected cell against its re-sample and fences
// the stable minority, returning the fenced shard ids (sorted).
func (r *Router) judgeCell(lay *layout, cell int, first, second map[int]CellChecksum) []int {
	stable := map[int]CellChecksum{}
	for rep, s1 := range first {
		if s2, ok := second[rep]; ok && s1 == s2 {
			stable[rep] = s1
		}
	}
	if len(stable) < 2 || checksumsAgree(stable) {
		// Unstable (writes in flight), healed, or too few answers to
		// compare: no verdict this sweep.
		return nil
	}
	// Majority checksum among the stable replicas wins; ties break to the
	// earliest placement-order holder (strict > keeps the first seen). A
	// tie (≥2 distinct digests sharing the max vote count — always the case
	// at R=2) is counted: /shardz surfaces sweep_ties so an operator can
	// see how often the verdict rested on the placement-order break rather
	// than a true majority (DESIGN.md §11 limitation 7).
	votes := map[CellChecksum]int{}
	for _, s := range stable {
		votes[s]++
	}
	best := 0
	for _, n := range votes {
		if n > best {
			best = n
		}
	}
	atMax := 0
	for _, n := range votes {
		if n == best {
			atMax++
		}
	}
	if atMax > 1 {
		r.m.sweepTies.Add(1)
	}
	var winner CellChecksum
	bestSeen := -1
	for _, rep := range lay.pl.Replicas(cell) {
		s, ok := stable[rep]
		if !ok {
			continue
		}
		if votes[s] > bestSeen {
			bestSeen = votes[s]
			winner = s
		}
	}
	var fenced []int
	for rep, s := range stable {
		if s == winner {
			continue
		}
		r.m.sweepMismatch.Add(1)
		if r.shards[rep].markStale(true) {
			r.m.staleMarks.Add(1)
		}
		r.nudgeIfNeeded(r.shards[rep])
		fenced = append(fenced, rep)
	}
	sort.Ints(fenced)
	return fenced
}
