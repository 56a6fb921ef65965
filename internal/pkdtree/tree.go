// Package pkdtree implements the shared-memory parallel kd-tree baseline of
// Men et al. (SIGMOD'25), the "PKD-tree" row of the paper's Table 1. It is
// both a comparison baseline for the PIM-kd-tree and the reference
// implementation the correctness tests check the PIM tree against.
//
// The tree is α-balanced: for every internal node, the larger child's
// subtree size is at most (1+α) times the smaller child's. Construction
// builds multi-level treelet skeletons from samples sized to the cache
// (the PKD construction scheme), so the metered streaming transfers follow
// the O(n · log_M n) cache-complexity bound. Batch updates use
// scapegoat-style partial reconstruction: routing a batch updates exact
// subtree counters along every root-to-leaf path, and the highest node whose
// balance is violated is rebuilt from scratch.
//
// Cost metering: the Meter records node visits (the shared-memory
// communication proxy — each tree node touched is an off-chip access in the
// external-memory view the paper compares against), point-level work, and
// modeled streaming cache transfers during construction and rebuilds.
package pkdtree

import (
	"fmt"
	"math/rand"

	"pimkd/internal/geom"
	"pimkd/internal/kd"
)

// Item is a point with an opaque identifier, the unit stored in the tree
// (kd.Item; the baseline leaves Priority unused).
type Item = kd.Item

// Meter accumulates the shared-memory cost metrics of a Tree.
type Meter struct {
	// NodeVisits counts tree nodes touched by queries and update routing;
	// it is the work and communication proxy for the shared-memory rows of
	// Table 1.
	NodeVisits int64
	// PointOps counts point-granularity work (partitioning, distance
	// evaluations, leaf scans).
	PointOps int64
	// CacheXfers counts modeled streaming transfers: every construction or
	// rebuild pass over a working set larger than the configured cache
	// charges one transfer per point (the ideal-cache streaming bound).
	CacheXfers int64
	// Rebuilds counts partial reconstructions triggered by imbalance.
	Rebuilds int64
	// RebuiltPoints counts the total points involved in reconstructions.
	RebuiltPoints int64
}

// Reset zeroes the meter.
func (m *Meter) Reset() { *m = Meter{} }

// Config holds the tree parameters.
type Config struct {
	// Dim is the point dimension (required, >= 1).
	Dim int
	// Alpha is the balance slack: an internal node is in balance while
	// T(big child) <= (1+Alpha)·T(small child) + 1. Alpha = O(1) gives the
	// paper's semi-balanced regime. Default 1.0.
	Alpha float64
	// LeafSize is the leaf bucket capacity. Default 8.
	LeafSize int
	// CacheM is the modeled cache size in words used for skeleton sizing
	// and transfer metering. Default 1 << 16.
	CacheM int
	// Oversample is the σ over-sampling rate for skeleton construction.
	// Default 32 (the theory uses log³ n; a generous constant keeps the
	// sample median concentrated at bench scales).
	Oversample int
	// Seed drives sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim < 1 {
		panic("pkdtree: Config.Dim must be >= 1")
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.0
	}
	if c.LeafSize <= 0 {
		c.LeafSize = 8
	}
	if c.CacheM <= 0 {
		c.CacheM = 1 << 16
	}
	if c.Oversample <= 0 {
		c.Oversample = 32
	}
	return c
}

// node is a tree node; internal nodes carry the splitting hyperplane and
// leaves carry the point bucket.
type node struct {
	axis  int32
	split float64
	left  *node
	right *node
	size  int      // exact number of items in this subtree
	box   geom.Box // tight bounding box of the subtree's items
	pts   []Item   // non-nil iff leaf
}

func (nd *node) leaf() bool { return nd.pts != nil }

// Tree is a batch-dynamic α-balanced kd-tree.
type Tree struct {
	cfg   Config
	root  *node
	rng   *rand.Rand
	Meter Meter
}

// New builds a tree over items (which may be empty) with the given
// configuration.
func New(cfg Config, items []Item) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if len(items) > 0 {
		own := make([]Item, len(items))
		copy(own, items)
		t.root = t.build(own)
	}
	return t
}

// Size returns the number of stored items.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Dim returns the point dimension.
func (t *Tree) Dim() int { return t.cfg.Dim }

// Alpha returns the configured balance slack.
func (t *Tree) Alpha() float64 { return t.cfg.Alpha }

// Height returns the height of the tree (0 for empty, 1 for a single leaf).
func (t *Tree) Height() int { return height(t.root) }

func height(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf() {
		return 1
	}
	l, r := height(nd.left), height(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Items returns all stored items (in tree order). It is O(n).
func (t *Tree) Items() []Item { return collect(t.root, make([]Item, 0, t.Size())) }

// CellInfo describes one tree node for structural analysis (the
// kNN-friendliness checks of the paper's Appendix A examine cell shapes
// and sibling sizes).
type CellInfo struct {
	// Depth is the node's depth (root = 0).
	Depth int
	// Size is the subtree's point count.
	Size int
	// Box is the tight bounding box of the subtree's points.
	Box geom.Box
	// SiblingSize is the point count of the node's sibling (0 at the root).
	SiblingSize int
	// Leaf marks leaf nodes.
	Leaf bool
}

// WalkCells invokes fn for every node in the tree, in DFS preorder.
func (t *Tree) WalkCells(fn func(CellInfo)) {
	var rec func(nd *node, depth, sibling int)
	rec = func(nd *node, depth, sibling int) {
		if nd == nil {
			return
		}
		fn(CellInfo{Depth: depth, Size: nd.size, Box: nd.box, SiblingSize: sibling, Leaf: nd.leaf()})
		if !nd.leaf() {
			rec(nd.left, depth+1, nd.right.size)
			rec(nd.right, depth+1, nd.left.size)
		}
	}
	rec(t.root, 0, 0)
}

// CheckInvariants validates the structural invariants: exact subtree sizes,
// bounding-box containment, split-plane routing consistency, and α-balance.
// It returns an error describing the first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	var check func(nd *node) (int, error)
	check = func(nd *node) (int, error) {
		if nd == nil {
			return 0, nil
		}
		if nd.leaf() {
			if len(nd.pts) != nd.size {
				return 0, fmt.Errorf("leaf size %d != len(pts) %d", nd.size, len(nd.pts))
			}
			for _, it := range nd.pts {
				if !nd.box.Contains(it.P) {
					return 0, fmt.Errorf("leaf box does not contain item %d", it.ID)
				}
			}
			return nd.size, nil
		}
		ls, err := check(nd.left)
		if err != nil {
			return 0, err
		}
		rs, err := check(nd.right)
		if err != nil {
			return 0, err
		}
		if ls+rs != nd.size {
			return 0, fmt.Errorf("internal size %d != %d + %d", nd.size, ls, rs)
		}
		if violated(ls, rs, t.cfg.Alpha) && !t.forcedImbalance(nd) {
			return 0, fmt.Errorf("alpha-balance violated: children %d vs %d (alpha=%g)", ls, rs, t.cfg.Alpha)
		}
		return nd.size, nil
	}
	_, err := check(t.root)
	return err
}

// forcedImbalance reports whether nd's imbalance is unavoidable for its
// point multiset: α-balance is a single-cut property at every node, so if
// the best achievable cut (most balanced axis and value) still violates α,
// no rebuild can fix this node — duplicate-heavy multisets (e.g. one point
// carrying more than half the multiplicity) are like that.
func (t *Tree) forcedImbalance(nd *node) bool {
	items := collect(nd, nil)
	box := kd.NewBox(t.cfg.Dim)
	kd.Box(items, box)
	axis, split, ok := kd.ExactSplit(items, box, make([]float64, len(items)))
	if !ok {
		return true // all points identical: indivisible
	}
	left := kd.Partition(items, axis, split)
	return violated(left, len(items)-left, t.cfg.Alpha)
}

// violated reports whether child sizes (ls, rs) break the α-balance
// condition T(big) <= (1+α)·T(small) + 1. The +1 slack keeps tiny subtrees
// (sizes 0..2) legal, matching the paper's asymptotic definition.
func violated(ls, rs int, alpha float64) bool {
	big, small := ls, rs
	if rs > ls {
		big, small = rs, ls
	}
	return float64(big) > (1+alpha)*float64(small)+1
}

// routeLeft reports whether a point with coordinate v on the split axis is
// routed to the left child. The rule (v < split goes left) is used uniformly
// by construction, insertion, deletion, and search so routing stays
// consistent across rebuilds.
func routeLeft(v, split float64) bool { return v < split }

// child returns the child of internal node nd that p routes to.
func (nd *node) child(p geom.Point) *node {
	if routeLeft(p[int(nd.axis)], nd.split) {
		return nd.left
	}
	return nd.right
}
