// Package serve turns concurrent singleton requests into the well-formed
// operation batches the PIM-kd-tree is designed around.
//
// The paper's headline results are batch bounds: a batch of S LeafSearch,
// kNN, range, or update operations costs O(S log* P) off-chip communication
// and stays PIM-balanced even under adversarial skew (Table 1, Theorems
// 4.1/4.3, Lemma 3.8). A deployed index, however, receives *individual*
// requests from many concurrent clients. This package supplies the missing
// layer:
//
//   - admission control with backpressure (a bounded number of requests may
//     be in flight; further submitters block),
//   - executor-driven batch coalescing: requests of the same kind (and,
//     for kNN, the same k) accumulate while the executor is busy, and
//     every forming batch is sealed, oldest first, the moment it finishes
//     a batch with nothing else queued — so service time, not a timer,
//     sets the batch width. A request that finds the executor idle seals
//     its batch on arrival. MaxBatch = S caps a batch's size, and
//     MaxLinger caps how long the oldest request of a batch may wait while
//     the executor stays busy,
//   - epoch-based read/write scheduling: batches execute in admission order
//     on a single executor goroutine that owns the tree; consecutive read
//     batches share an epoch, while every update batch is serialized into
//     an epoch of its own, so no query ever observes a partially
//     reconstructed tree,
//   - per-request futures that fan the batch results back to their callers,
//   - per-batch cost attribution: every executed batch is bracketed by
//     pim.Machine.SnapshotStats calls, and the deltas (communication, PIM
//     work/time, rounds, per-module balance) are aggregated per operation
//     kind and exposed for a /statsz endpoint — making the paper's bounds
//     observable under live concurrent traffic.
package serve

import (
	"time"

	"pimkd/internal/persist"
)

// Config parameterizes a Service. The zero value is usable; defaults are
// filled in by New.
type Config struct {
	// MaxBatch is S, the largest batch the coalescer forms. A queue that
	// reaches MaxBatch pending requests is sealed and dispatched
	// immediately. Default 256.
	MaxBatch int
	// MaxLinger bounds how long the oldest request of a forming batch may
	// wait before the batch is sealed regardless of size. It only comes
	// into play while the executor is busy: an idle executor seals a batch
	// on arrival, and a finishing one seals every forming batch. Default
	// 2ms.
	MaxLinger time.Duration
	// MaxPending is the admission limit: at most this many requests may be
	// admitted and not yet replied to. Further submitters block (the
	// backpressure mechanism) until capacity frees or their context is
	// canceled. Default 4·MaxBatch.
	MaxPending int
	// Seed drives every randomized choice made by the service layer itself
	// (currently the reservoir sampling of batch records kept for /statsz).
	// Together with seeded workload generators and core.Config.Seed this
	// makes a replayed request trace fully deterministic. Default 1.
	Seed int64
	// OnBatch, when non-nil, is invoked on the executor goroutine after
	// every batch completes, before replies are delivered. Because it runs
	// on the goroutine that owns the tree, it may safely inspect the tree
	// (the concurrency tests use it to check invariants between batches);
	// it must not submit requests, which would deadlock.
	OnBatch func(BatchRecord)
	// TraceCapacity, when > 0, attaches a trace.Tracer retaining that many
	// per-round records to the tree's machine. Every BSP round a batch
	// triggers is then labeled "serve/<kind>/batch=<n>/..." and the
	// analysis report is exposed on /tracez (JSON, or raw Perfetto with
	// ?format=perfetto). 0 disables tracing (no per-round overhead).
	TraceCapacity int

	// ShedHighWater, when > 0, turns on load shedding: a submission that
	// arrives while at least this many of the MaxPending admission slots
	// are held is rejected immediately with ErrOverloaded (HTTP 503 +
	// Retry-After) instead of blocking. 0 (the default) disables shedding,
	// leaving pure blocking backpressure.
	ShedHighWater int
	// ShedRetryAfter is the Retry-After hint attached to shed responses.
	// Default 1s.
	ShedRetryAfter time.Duration
	// RetryTransient is how many times a read-only batch that fails with a
	// transient machine fault (ErrFault: a contained module crash the
	// supervisor gave up on, or a round timeout) is re-executed before the
	// error is fanned out to its callers. Write batches are never retried —
	// a fault may have left a partial mutation, and blind re-execution
	// could double-apply it. Default 2; -1 disables retries.
	RetryTransient int
	// RetryBackoff is the wall-clock delay before the first batch retry; it
	// doubles per attempt. Never metered. Default 500µs.
	RetryBackoff time.Duration

	// Persist, when non-nil, turns on durable-write mode: every sealed
	// write batch is appended to this store's write-ahead log before it
	// commits to the machine (acknowledgement ⇒ durability), and a
	// background checkpointer periodically folds the log into a snapshot.
	// The Service does not Open or Close the store — the caller owns its
	// lifecycle and must Close it only after Service.Close returns.
	Persist *persist.Store
	// CheckpointEvery starts a checkpoint after this many committed write
	// batches. Default 256; negative disables the count trigger.
	CheckpointEvery int
	// CheckpointInterval starts a checkpoint when this much wall time has
	// passed since the last one (checked after each committed write batch —
	// an entirely idle service does not checkpoint). Default 30s; negative
	// disables the interval trigger.
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = 2 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShedRetryAfter <= 0 {
		c.ShedRetryAfter = time.Second
	}
	switch {
	case c.RetryTransient == 0:
		c.RetryTransient = 2
	case c.RetryTransient < 0:
		c.RetryTransient = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Microsecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	return c
}
