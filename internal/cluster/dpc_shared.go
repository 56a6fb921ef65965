package cluster

import (
	"math"

	"pimkd/internal/conncomp"
	"pimkd/internal/geom"
	"pimkd/internal/pkdtree"
	"pimkd/internal/prioritykd"
)

// DPCSharedMeter reports the shared-memory baseline's cost proxies.
type DPCSharedMeter struct {
	// NodeVisits is the kd-tree node-touch total (work/communication proxy
	// of the ParGeo row in Table 1).
	NodeVisits int64
	// PointOps counts point-level distance work.
	PointOps int64
}

// DPCShared runs the ParGeo-style shared-memory density peak clustering:
// densities by kd-tree radius counts, dependent points by a priority-search
// kd-tree, then union-find over the cut dependency forest. It produces
// results identical to DPCPIM and DPCBrute (the tie order is (density,
// index)), differing only in the metered cost model.
func DPCShared(pts []geom.Point, par DPCParams, seed int64) (DPCResult, DPCSharedMeter) {
	n := len(pts)
	res := DPCResult{
		Density:       make([]int, n),
		DependentID:   make([]int32, n),
		DependentDist: make([]float64, n),
		Labels:        make([]int32, n),
	}
	var meter DPCSharedMeter
	if n == 0 {
		return res, meter
	}
	dim := len(pts[0])
	items := make([]pkdtree.Item, n)
	for i, p := range pts {
		items[i] = pkdtree.Item{P: p, ID: int32(i)}
	}
	tree := pkdtree.New(pkdtree.Config{Dim: dim, Seed: seed}, items)
	for i, p := range pts {
		res.Density[i] = tree.RadiusCount(p, par.DCut)
	}

	// Priority-search kd-tree for dependent points.
	for i := range items {
		items[i].Priority = float64(res.Density[i])
	}
	pt := prioritykd.New(items, 8)
	for i := range pts {
		id, d2 := pt.NearestHigher(pts[i], float64(res.Density[i]), int32(i))
		res.DependentID[i] = id
		res.DependentDist[i] = math.Sqrt(d2)
	}
	meter.NodeVisits += tree.Meter.NodeVisits + pt.Meter.NodeVisits
	meter.PointOps += tree.Meter.PointOps + pt.Meter.PointOps

	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		if res.DependentID[i] >= 0 && res.DependentDist[i] <= par.Eps {
			a, b := find(int32(i)), find(res.DependentID[i])
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		res.Labels[i] = find(int32(i))
	}
	res.NumClusters = conncomp.Count(res.Labels)
	return res, meter
}
