package shard

import "pimkd/internal/geom"

// Test-only hooks: compiled into the shard package for its external test
// package only, so regression tests can stage internal rebalancer state
// (pending purges, cached samples) without exporting it for real.

// MarkDirtyForTest queues a stray purge exactly as a committed migration
// would, taking the same runMu serialization the rebalancer uses.
func (r *Router) MarkDirtyForTest(shard int, cell int, box geom.Box) {
	r.rb.runMu.Lock()
	defer r.rb.runMu.Unlock()
	r.markDirty(shard, dirtyRegion{cell: cell, box: box})
}

// PurgesPendingForTest reports whether any stray purge is still queued.
func (r *Router) PurgesPendingForTest() bool { return r.purgesPending() }

// SetLastCountsForTest installs a cached per-cell sample as if it had been
// taken under the given layout epoch.
func (r *Router) SetLastCountsForTest(counts []CellCount, epoch uint64) {
	r.rb.mu.Lock()
	defer r.rb.mu.Unlock()
	r.rb.lastCounts = append([]CellCount(nil), counts...)
	r.rb.lastEpoch = epoch
}

// encodePayload is EncodeFrame without the length + CRC prefix: the bytes
// DecodePayload takes, for tests that corrupt a body in place.
func encodePayload(reqID uint64, m any, dim int) []byte {
	return EncodeFrame(reqID, m, dim)[frameHeader:]
}

// FailsForTest returns a shard's consecutive transport-failure count, the
// counter FailThreshold judges health by.
func (r *Router) FailsForTest(shard int) int32 { return r.shards[shard].fails.Load() }
