package core

import (
	"pimkd/internal/geom"
	"pimkd/internal/kd"
	"pimkd/internal/pim"
)

// PartitionedTree is the straw-man PIM kd-tree the paper's §3 argues
// against: the space is cut into P contiguous subtrees and subtree i lives
// entirely on module i. Uniform workloads balance fine, but an adversarial
// batch confined to one subspace lands on a single module — the skew
// experiments measure exactly that blow-up against the PIM-kd-tree.
type PartitionedTree struct {
	mach     *pim.Machine
	dim      int
	leafSize int
	top      *kd.Sketch // CPU-resident routing levels
	subs     []*bnode   // subs[m] lives on module m
}

// NewPartitioned builds a partitioned tree over items on machine mach.
func NewPartitioned(dim, leafSize int, mach *pim.Machine, items []Item) *PartitionedTree {
	if leafSize <= 0 {
		leafSize = 8
	}
	pt := &PartitionedTree{mach: mach, dim: dim, leafSize: leafSize}
	own := make([]Item, len(items))
	copy(own, items)
	if len(own) == 0 {
		return pt
	}
	p := mach.P()
	top, buckets, ops := kd.BuildSketch(own, p, kd.ExactSplit)
	pt.top = top
	parts := make([][]Item, buckets)
	for _, it := range own {
		b := top.Route(it.P)
		parts[b] = append(parts[b], it)
	}
	mach.CPUPhase(ops+int64(len(own)), int64(len(own)/p+1))
	pt.subs = make([]*bnode, buckets)
	mach.RunRound(func(r *pim.Round) {
		r.Label("core/partitioned:build")
		for m := 0; m < buckets; m++ {
			r.Transfer(m%p, int64(len(parts[m]))*pointWords(dim))
		}
		r.OnModules(func(ctx *pim.ModuleCtx) {
			for m := ctx.ID(); m < buckets; m += p {
				if len(parts[m]) == 0 {
					continue
				}
				var w int64
				pt.subs[m] = buildExactB(parts[m], leafSize, &w)
				ctx.Work(w)
			}
		})
	})
	return pt
}

// LeafSearch routes a batch: the CPU walks the top levels, then each query
// is shipped to the single module owning its subspace, which finishes the
// search locally. The per-module communication and work are whatever the
// batch's spatial distribution dictates — there is no skew defense.
func (pt *PartitionedTree) LeafSearch(qs []geom.Point) []int {
	depths := make([]int, len(qs))
	if pt.top == nil {
		return depths
	}
	p := pt.mach.P()
	perMod := make([][]int, len(pt.subs))
	for i, q := range qs {
		b := pt.top.Route(q)
		perMod[b] = append(perMod[b], i)
	}
	pt.mach.CPUPhase(int64(len(qs)), int64(len(qs)/p+1))
	qw := queryWords(pt.dim)
	pt.mach.RunRound(func(r *pim.Round) {
		r.Label("core/partitioned:search")
		r.OnModules(func(ctx *pim.ModuleCtx) {
			for b := ctx.ID(); b < len(pt.subs); b += p {
				if len(perMod[b]) == 0 || pt.subs[b] == nil {
					continue
				}
				ctx.Transfer(int64(len(perMod[b])) * qw)
				var work int64
				for _, qi := range perMod[b] {
					nd := pt.subs[b]
					d := 0
					for nd.pts == nil {
						d++
						if qs[qi][nd.axis] < nd.split {
							nd = nd.l
						} else {
							nd = nd.r
						}
					}
					depths[qi] = d + 1
					work += int64(d + 1)
				}
				ctx.Work(work)
				ctx.Transfer(int64(len(perMod[b])))
			}
		})
	})
	return depths
}
