package core

import (
	"pimkd/internal/mathx"
)

// GroupStat summarizes one group of the log-star decomposition, the data
// behind Figure 1 and Lemmas 3.1/3.2.
type GroupStat struct {
	// Group is the group index (0 = fully replicated top).
	Group int
	// Threshold is H[group]: the minimum subtree size of the group.
	Threshold float64
	// Nodes is the number of master nodes in the group.
	Nodes int
	// Components is the number of intra-group connected subtrees.
	Components int
	// MaxHeight is the tallest intra-group component.
	MaxHeight int
	// Copies is the total number of node copies (masters + replicas) the
	// group stores; per Theorem 3.3 each group is O(n).
	Copies int64
	// Unfinished counts components with delayed caching.
	Unfinished int
}

// DecompositionStats walks the tree and reports per-group structure.
func (t *Tree) DecompositionStats() []GroupStat {
	stats := make([]GroupStat, t.L+1)
	for g := range stats {
		stats[g].Group = g
		stats[g].Threshold = t.H[mathx.MinInt(g, len(t.H)-1)]
	}
	if t.root == Nil {
		return stats
	}
	p := int64(t.mach.P())
	var rec func(id NodeID, parentGroup int16) int
	// rec returns the height of id's intra-group component measured from id
	// downward (so a component root's return value is the component height).
	rec = func(id NodeID, parentGroup int16) int {
		nd := t.nd(id)
		g := int(nd.group)
		st := &stats[g]
		st.Nodes++
		if nd.group == 0 {
			st.Copies += p
		} else {
			st.Copies += int64(1 + popcount(t.copyRow(id)))
		}
		isRoot := nd.parent == Nil || t.nd(nd.parent).group != nd.group
		if isRoot {
			st.Components++
			if nd.unfinished {
				st.Unfinished++
			}
		}
		h := 1
		if !nd.leaf {
			lh := rec(nd.left, nd.group)
			rh := rec(nd.right, nd.group)
			if t.nd(nd.left).group == nd.group && lh+1 > h {
				h = lh + 1
			}
			if t.nd(nd.right).group == nd.group && rh+1 > h {
				h = rh + 1
			}
		}
		if isRoot && h > st.MaxHeight {
			st.MaxHeight = h
		}
		return h
	}
	rec(t.root, -1)
	return stats
}

// TotalCopies returns the total number of node copies stored across all
// groups (the space-factor numerator of Theorem 3.3).
func (t *Tree) TotalCopies() int64 {
	var total int64
	for _, st := range t.DecompositionStats() {
		total += st.Copies
	}
	return total
}

// ComponentNode describes one member of an intra-group component's
// physical layout: its master module and the replica modules holding it
// under dual-way caching (the data behind Figure 2).
type ComponentNode struct {
	// ID is the node's arena id.
	ID NodeID
	// Depth is the member's depth within the component (root = 0).
	Depth int
	// Master is the master module.
	Master int32
	// Copies are the modules holding replicas (masters of in-component
	// ancestors and descendants).
	Copies []int32
	// Leaf marks tree leaves.
	Leaf bool
}

// SampleComponent returns the layout of the first component of the given
// group found by a preorder walk (nil when the group is empty or the
// component's caching is still delayed). Use it to render a Figure-2 style
// replica map.
func (t *Tree) SampleComponent(group int) []ComponentNode {
	if t.root == Nil {
		return nil
	}
	var rootID NodeID = Nil
	var find func(id NodeID)
	find = func(id NodeID) {
		if rootID != Nil {
			return
		}
		nd := t.nd(id)
		if int(nd.group) == group && !nd.unfinished {
			parentOK := nd.parent == Nil || t.nd(nd.parent).group != nd.group
			if parentOK {
				rootID = id
				return
			}
		}
		if !nd.leaf {
			find(nd.left)
			find(nd.right)
		}
	}
	find(t.root)
	if rootID == Nil {
		return nil
	}
	var w compWalk
	t.componentMembers(rootID, &w)
	depth := make([]int, len(w.members))
	out := make([]ComponentNode, 0, len(w.members))
	for i, id := range w.members {
		nd := t.nd(id)
		if p := w.parents[i]; p >= 0 {
			depth[i] = depth[p] + 1
		}
		copies := appendModules(nil, t.copyRow(id))
		out = append(out, ComponentNode{ID: id, Depth: depth[i], Master: nd.module, Copies: copies, Leaf: nd.leaf})
	}
	return out
}

// NodeCount returns the number of live master nodes.
func (t *Tree) NodeCount() int {
	n := 0
	for _, st := range t.DecompositionStats() {
		n += st.Nodes
	}
	return n
}
