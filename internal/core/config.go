// Package core implements the paper's primary contribution: the
// PIM-kd-tree, a batch-dynamic kd-tree for the PIM Model built on
//
//   - a log-star tree decomposition by subtree size (§3.1, Figure 1),
//   - dual-way (top-down + bottom-up) intra-group caching (§3.1, Figure 2),
//   - hash-randomized master-node placement for skew resistance,
//   - approximate probabilistic subtree-size counters (§3.3, Algorithm 3),
//   - push-pull batched search (§3.4) and delayed Group-1 construction,
//   - partial-reconstruction batch updates (§4.2),
//
// plus the straw-man space-partitioned PIM tree the paper argues against
// (PartitionedTree), used by the skew experiments.
//
// All operations run against a pim.Machine, which meters CPU work, PIM
// work/time, and off-chip communication/communication-time exactly as the
// PIM Model defines them; the benchmark harness validates the Table 1
// bounds against those meters.
package core

import (
	"pimkd/internal/kd"
	"pimkd/internal/mathx"
)

// Item is a point plus an opaque identifier, the unit stored in the tree;
// see kd.Item. Priority feeds the priority-search augmentation (§6.1).
type Item = kd.Item

// Config parameterizes a PIM-kd-tree.
type Config struct {
	// Dim is the point dimension (required).
	Dim int
	// Alpha is the balance slack: internal nodes keep
	// T(big child) <= (1+Alpha)·T(small child) + slack. Default 1.0
	// (semi-balanced). Use StrictAlpha(n) for the strictly-balanced regime.
	Alpha float64
	// Beta is the approximate-counter probability parameter (§3.3); the
	// paper sets Beta = Θ(Alpha). Default: Alpha.
	Beta float64
	// LeafSize is the leaf bucket capacity. Default 8.
	LeafSize int
	// Groups is the number of groups (beyond the fully replicated Group 0)
	// that receive intra-group caching: the G knob of the §5 space/
	// communication trade-off. 0 means log* P (the communication-optimal
	// design). Groups deeper than this store master nodes only.
	Groups int
	// PushPullFactor scales the push-pull threshold τ = factor · H(group).
	// Default 2 (the binary fanout C of Lemma 3.8). Two ablation extremes:
	// a negative value sets τ = 1 (every contended node is pulled — the
	// pull-only straw man), and a huge value (e.g. 1<<30) never pulls
	// (push-only, vulnerable to stragglers under skew).
	PushPullFactor int
	// ChunkSize is the B-tree-style chunking fanout C of the §5 batch-size
	// trade-off: up to C consecutive binary nodes of a group are placed as
	// one chunk on a single module. 1 (default) is the plain binary design.
	ChunkSize int
	// NoDelayedGroup1 disables the delayed construction of large Group-1
	// component caches (§3.4); the zero value keeps it enabled.
	NoDelayedGroup1 bool
	// Seed drives all randomized choices (sampling, counters, placement
	// salt). Runs are deterministic for a fixed Seed.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim < 1 {
		panic("core: Config.Dim must be >= 1")
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.0
	}
	if c.Beta <= 0 {
		c.Beta = c.Alpha
	}
	if c.LeafSize <= 0 {
		c.LeafSize = 8
	}
	if c.PushPullFactor == 0 {
		c.PushPullFactor = 2
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1
	}
	return c
}

// StrictAlpha returns the α = O(1)/log n slack of the strictly-balanced
// regime (tree height log n + O(1)).
func StrictAlpha(n int) float64 {
	return 4.0 / mathx.Log2(float64(n))
}

// Model word counts for space and communication accounting. A "word" is the
// PIM Model's unit of off-chip transfer.
const (
	// nodeBaseWords covers a node's scalar fields (axis, split, children,
	// parent, counter, group tag).
	nodeBaseWords = 8
	// queryBaseWords covers a query's bookkeeping when shipped between CPU
	// and a module (id, current node, result slot).
	queryBaseWords = 2
)

// nodeWords returns the transfer size of one node copy in dimension dim
// (scalars plus the bounding box).
func nodeWords(dim int) int64 { return nodeBaseWords + 2*int64(dim) }

// pointWords returns the transfer size of one point.
func pointWords(dim int) int64 { return int64(dim) }

// queryWords returns the transfer size of one in-flight query.
func queryWords(dim int) int64 { return queryBaseWords + int64(dim) }

// NodeWords exposes the model transfer size of one tree node copy, for
// harnesses converting baseline node-visit counts into words.
func NodeWords(dim int) int64 { return nodeWords(dim) }

// QueryWords exposes the model transfer size of one in-flight query.
func QueryWords(dim int) int64 { return queryWords(dim) }
