package serve

import (
	"container/heap"
	"sort"

	"pimkd/internal/core"
)

// Streaming ingest tracks every ingested item with a logical expiry
// deadline (an int64 supplied by the client — not wall-clock time, so
// sweeps are deterministic and testable). The executor owns a min-heap of
// tracked entries; an expire request pops every entry with deadline ≤ its
// logical now and deletes those items from the tree as a normal write
// batch — in durable mode, WAL-logged before commit like any delete.
//
// The heap is volatile: after a crash recovery the tree's items are
// restored from snapshot+WAL but the expiry tracking is not (the WAL
// records inserts, not deadlines). Operators restarting a durable ingest
// workload should treat pre-crash entries as unexpirable or re-ingest.

// expiryEntry is one tracked ingest: the item and its logical deadline.
type expiryEntry struct {
	at   int64
	item core.Item
}

// expiryHeap is a min-heap on deadline; ties break on the canonical item
// order so pop order — and therefore per-request expired counts — is a
// function of the tracked multiset only.
type expiryHeap []expiryEntry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return core.ItemLess(h[i].item, h[j].item)
}
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)         { *h = append(*h, x.(expiryEntry)) }
func (h *expiryHeap) Pop() any           { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *expiryHeap) push(e expiryEntry) { heap.Push(h, e) }

// popDue removes and returns every entry with deadline ≤ now, in ascending
// (deadline, item) order.
func (h *expiryHeap) popDue(now int64) []expiryEntry {
	var due []expiryEntry
	for h.Len() > 0 && (*h)[0].at <= now {
		due = append(due, heap.Pop(h).(expiryEntry))
	}
	return due
}

// pushAll restores entries (used to roll back a sweep whose durable log
// append failed: nothing was deleted, so nothing may leave the tracker).
func (h *expiryHeap) pushAll(es []expiryEntry) {
	for _, e := range es {
		heap.Push(h, e)
	}
}

// entriesIn returns copies of the tracked entries selected by in (the
// half-open cell-membership test), sorted by the canonical (item, deadline)
// order peer-rebuild snapshots use. The heap is unchanged.
func (h expiryHeap) entriesIn(in func(core.Item) bool) []expiryEntry {
	var out []expiryEntry
	for _, e := range h {
		if in(e.item) {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// sortEntries puts entries in the canonical (item, deadline) order.
func sortEntries(es []expiryEntry) {
	sort.Slice(es, func(i, j int) bool {
		if !core.ItemEq(es[i].item, es[j].item) {
			return core.ItemLess(es[i].item, es[j].item)
		}
		return es[i].at < es[j].at
	})
}

// tracks reports whether an entry with exactly this (item, deadline) is
// tracked. Linear scan: it backs the cluster's set-semantics ingest, whose
// rate is bounded by the wire path, not the local batch path.
func (h expiryHeap) tracks(item core.Item, at int64) bool {
	for _, e := range h {
		if e.at == at && core.ItemEq(e.item, item) {
			return true
		}
	}
	return false
}

// dropUnless removes every tracked entry keep rejects and re-establishes
// the heap invariant — the first half of a cell restore's expiry rebuild
// (the second half pushes the snapshot's entries).
func (h *expiryHeap) dropUnless(keep func(core.Item) bool) {
	old := *h
	out := old[:0]
	for _, e := range old {
		if keep(e.item) {
			out = append(out, e)
		}
	}
	*h = out
	heap.Init(h)
}
