// Package logtree implements the logarithmic-method baseline (Bentley–Saxe;
// Table 1 row "Log-tree"): a forest of O(log n) static kd-trees with
// power-of-two sizes. Inserting a batch cascades merges of equal-size
// trees; deleting uses tombstones with a global rebuild once half the
// stored items are dead. Every query must consult every live tree, which is
// exactly why LeafSearch costs O(S·log²(n/S)) here versus O(S·log(n/S)) in
// a single balanced tree — the slowdown the PIM-kd-tree avoids.
package logtree

import (
	"sync/atomic"

	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pkdtree"
)

// Forest is a logarithmic-method kd-tree forest.
type Forest struct {
	cfg    pkdtree.Config
	levels []*pkdtree.Tree // levels[i] is nil or holds ~2^i·LeafSize items
	// tomb maps each tombstoned ID to the point of its dead resident copy.
	// The forest holds at most one resident copy per ID: re-inserting a
	// tombstoned ID first purges the dead copy.
	tomb  map[int32]geom.Point
	size  int // live item count
	Meter Meter
}

// Meter aggregates the forest's cost metrics (the underlying static trees'
// meters are folded in on demand via Snapshot).
type Meter struct {
	// TreesTouched counts static trees consulted by queries: the
	// multiplicative overhead of the logarithmic method.
	TreesTouched int64
	// MergedPoints counts points moved by merge rebuilds during updates.
	MergedPoints int64
	// GlobalRebuilds counts whole-forest rebuilds triggered by tombstone
	// density.
	GlobalRebuilds int64
}

// New creates an empty forest; cfg configures the static trees.
func New(cfg pkdtree.Config) *Forest {
	return &Forest{cfg: cfg, tomb: make(map[int32]geom.Point)}
}

// Size returns the number of live items.
func (f *Forest) Size() int { return f.size }

// NodeVisits returns the summed node-visit meter across all static trees,
// the shared-memory communication proxy.
func (f *Forest) NodeVisits() int64 {
	var total int64
	for _, t := range f.levels {
		if t != nil {
			total += atomic.LoadInt64(&t.Meter.NodeVisits)
		}
	}
	return total
}

// BatchInsert inserts items, cascading merges so that level i holds either
// nothing or a static tree of roughly 2^i · batch granularity. An item's
// ID must not be live in the forest already; a tombstoned ID may return.
func (f *Forest) BatchInsert(items []Item) {
	if len(items) == 0 {
		return
	}
	f.purge(items)
	pending := append([]Item(nil), items...)
	f.size += len(items)
	level := 0
	for {
		if level == len(f.levels) {
			f.levels = append(f.levels, nil)
		}
		if f.levels[level] == nil {
			f.levels[level] = pkdtree.New(f.cfg, pending)
			f.Meter.MergedPoints += int64(len(pending))
			return
		}
		// Merge: absorb the resident tree into the pending batch and carry
		// to the next level, Bentley–Saxe style.
		resident := f.levels[level].Items()
		f.levels[level] = nil
		pending = append(pending, resident...)
		f.Meter.MergedPoints += int64(len(resident))
		if len(pending) < (2<<level)*maxInt(f.cfg.LeafSize, 1) {
			// Still fits this level's capacity after the merge.
			f.levels[level] = pkdtree.New(f.cfg, pending)
			return
		}
		level++
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Item mirrors pkdtree.Item for the public API of the forest.
type Item = pkdtree.Item

// purge physically removes the dead resident copy of every tombstoned ID
// that items re-insert, so the tombstone cannot hide the new copy and the
// dead copy cannot come back to life.
func (f *Forest) purge(items []Item) {
	var gone []Item
	for _, it := range items {
		if p, ok := f.tomb[it.ID]; ok {
			gone = append(gone, Item{P: p, ID: it.ID})
			delete(f.tomb, it.ID)
		}
	}
	if len(gone) == 0 {
		return
	}
	for i, t := range f.levels {
		if t != nil {
			t.BatchDelete(gone)
			if t.Size() == 0 {
				f.levels[i] = nil
			}
		}
	}
}

// BatchDelete tombstones the given items (matched by coordinates + ID);
// items not live in the forest are ignored. A global rebuild compacts the
// forest once tombstones reach half the stored items.
func (f *Forest) BatchDelete(items []Item) {
	for _, it := range items {
		if f.Contains(it) {
			f.tomb[it.ID] = it.P
			f.size--
		}
	}
	if len(f.tomb) > f.size {
		f.compact()
	}
}

// dead reports whether id is tombstoned.
func (f *Forest) dead(id int32) bool {
	_, ok := f.tomb[id]
	return ok
}

// compact rebuilds the whole forest without tombstoned items.
func (f *Forest) compact() {
	var live []Item
	for _, t := range f.levels {
		if t == nil {
			continue
		}
		for _, it := range t.Items() {
			if !f.dead(it.ID) {
				live = append(live, it)
			}
		}
	}
	f.levels = nil
	f.tomb = make(map[int32]geom.Point)
	f.size = 0
	f.Meter.GlobalRebuilds++
	if len(live) > 0 {
		f.BatchInsert(live)
	}
}

// LeafSearch routes q through every live tree and returns the union of the
// reached leaves' live items. Depth is the summed leaf depth over trees —
// the O(log²) search-path total of the logarithmic method.
func (f *Forest) LeafSearch(q geom.Point) (items []Item, depth int) {
	for _, t := range f.levels {
		if t == nil {
			continue
		}
		f.Meter.TreesTouched++
		pts, d := t.LeafSearch(q)
		depth += d
		for _, it := range pts {
			if !f.dead(it.ID) {
				items = append(items, it)
			}
		}
	}
	return items, depth
}

// Contains reports whether the item is live in the forest.
func (f *Forest) Contains(it Item) bool {
	if f.dead(it.ID) {
		return false
	}
	for _, t := range f.levels {
		if t != nil && t.Contains(it) {
			return true
		}
	}
	return false
}

// KNN merges per-tree kNN results into the global k nearest live items.
func (f *Forest) KNN(q geom.Point, k int) []heapx.Candidate {
	best := heapx.NewKBest(k)
	for _, t := range f.levels {
		if t == nil {
			continue
		}
		f.Meter.TreesTouched++
		// Over-fetch by the live tombstone count so dead candidates can
		// never crowd out a live true neighbor.
		fetch := k + len(f.tomb)
		for _, c := range t.KNN(q, fetch) {
			if !f.dead(c.ID) {
				best.Offer(c.Dist2, c.ID)
			}
		}
	}
	return best.Sorted()
}

// RangeReport returns live items inside box across all trees.
func (f *Forest) RangeReport(box geom.Box) []Item {
	var out []Item
	for _, t := range f.levels {
		if t == nil {
			continue
		}
		f.Meter.TreesTouched++
		for _, it := range t.RangeReport(box) {
			if !f.dead(it.ID) {
				out = append(out, it)
			}
		}
	}
	return out
}
