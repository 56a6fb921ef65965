// Package cluster implements the paper's two clustering applications (§6):
// density peak clustering (DPC) and 2-dimensional DBSCAN, each in a
// PIM-offloaded form built on the PIM-kd-tree and its techniques, plus
// shared-memory baselines (ParGeo-style) and brute-force references used by
// the tests and the benchmark harness.
package cluster

import (
	"math"

	"pimkd/internal/conncomp"
	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
)

// DPCParams holds the two user parameters of density peak clustering.
type DPCParams struct {
	// DCut is the density radius: a point's density is the number of
	// points within DCut (inclusive, counting itself).
	DCut float64
	// Eps is the dependency cut: edges to dependent points farther than
	// Eps are removed, and their sources become cluster peaks.
	Eps float64
}

// DPCResult is the full output of density peak clustering.
type DPCResult struct {
	// Density[i] is the DCut-ball population of point i.
	Density []int
	// DependentID[i] is the nearest point with higher (density, index)
	// order, or -1 for the global density peak.
	DependentID []int32
	// DependentDist[i] is the distance to the dependent point (+Inf for
	// the global peak).
	DependentDist []float64
	// Labels[i] is the cluster identifier of point i (the index of its
	// cluster's peak-side component root).
	Labels []int32
	// NumClusters counts distinct labels.
	NumClusters int
}

// DPCPIM runs density peak clustering on the PIM machine (§6.1):
//
//  1. density computation via batched radius counts on a PIM-kd-tree;
//  2. dependent points via a priority-search PIM-kd-tree whose priorities
//     are the densities;
//  3. cutting edges longer than Eps and finding connected components.
func DPCPIM(mach *pim.Machine, pts []geom.Point, par DPCParams, seed int64) DPCResult {
	n := len(pts)
	res := DPCResult{
		Density:       make([]int, n),
		DependentID:   make([]int32, n),
		DependentDist: make([]float64, n),
		Labels:        make([]int32, n),
	}
	if n == 0 {
		return res
	}
	dim := len(pts[0])

	// Step 1: densities.
	items := make([]core.Item, n)
	for i, p := range pts {
		items[i] = core.Item{P: p, ID: int32(i)}
	}
	tree := core.New(core.Config{Dim: dim, Seed: seed}, mach)
	tree.Build(items)
	res.Density = tree.RadiusCount(pts, par.DCut)

	// Step 2: dependent points on a priority-search PIM-kd-tree.
	prItems := make([]core.Item, n)
	for i := range items {
		prItems[i] = core.Item{P: pts[i], ID: int32(i), Priority: float64(res.Density[i])}
	}
	prTree := core.New(core.Config{Dim: dim, Seed: seed + 1}, mach)
	prTree.Build(prItems)
	deps := prTree.DependentPoints(prItems)

	// Step 3: cut long edges, cluster by connectivity.
	var edges []conncomp.Edge
	for i, d := range deps {
		res.DependentID[i] = d.ID
		res.DependentDist[i] = d.Dist
		if d.ID >= 0 && d.Dist <= par.Eps {
			edges = append(edges, conncomp.Edge{U: int32(i), V: d.ID})
		}
	}
	res.Labels = conncomp.Components(mach, n, edges)
	res.NumClusters = conncomp.Count(res.Labels)
	return res
}

// DPCBrute is the quadratic reference implementation used to validate both
// the PIM and the shared-memory algorithms on small inputs. Like the trees'
// radius queries, it treats a negative or NaN DCut as the empty ball.
func DPCBrute(pts []geom.Point, par DPCParams) DPCResult {
	n := len(pts)
	res := DPCResult{
		Density:       make([]int, n),
		DependentID:   make([]int32, n),
		DependentDist: make([]float64, n),
		Labels:        make([]int32, n),
	}
	r2 := par.DCut * par.DCut
	if !(par.DCut >= 0) {
		r2 = -1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if geom.Dist2(pts[i], pts[j]) <= r2 {
				res.Density[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		best := int32(-1)
		bestD2 := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			higher := res.Density[j] > res.Density[i] ||
				(res.Density[j] == res.Density[i] && int32(j) > int32(i))
			if !higher {
				continue
			}
			if d2 := geom.Dist2(pts[i], pts[j]); d2 < bestD2 {
				bestD2 = d2
				best = int32(j)
			}
		}
		res.DependentID[i] = best
		res.DependentDist[i] = math.Sqrt(bestD2)
	}
	// Union-find over kept edges.
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
	return res
}
