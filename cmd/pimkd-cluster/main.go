// Command pimkd-cluster runs the paper's two clustering applications (§6)
// end to end on synthetic Gaussian-mixture data and reports cluster
// statistics plus the PIM-Model cost of each phase.
//
//	pimkd-cluster -algo dpc    -n 20000
//	pimkd-cluster -algo dbscan -n 20000 -eps 0.02 -minpts 16
package main

import (
	"flag"
	"fmt"
	"os"

	"pimkd/internal/cluster"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

func main() {
	var (
		algo   = flag.String("algo", "dpc", "dpc or dbscan")
		n      = flag.Int("n", 20000, "number of points")
		p      = flag.Int("p", 64, "number of PIM modules")
		k      = flag.Int("clusters", 8, "generator: number of Gaussian clusters")
		sigma  = flag.Float64("sigma", 0.03, "generator: cluster stddev")
		noise  = flag.Int("noise", 0, "generator: uniform noise points to add")
		dcut   = flag.Float64("dcut", 0.01, "dpc: density radius")
		cut    = flag.Float64("cut", 0.2, "dpc: dependency cut distance")
		eps    = flag.Float64("eps", 0.02, "dbscan: neighborhood radius")
		minPts = flag.Int("minpts", 16, "dbscan: core threshold")
		seed   = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if !(*dcut >= 0 && *cut >= 0 && *eps >= 0) {
		fmt.Fprintln(os.Stderr, "-dcut, -cut and -eps must be non-negative numbers")
		os.Exit(2)
	}

	pts := workload.GaussianClusters(*n, 2, *k, *sigma, *seed)
	if *noise > 0 {
		pts = append(pts, workload.Uniform(*noise, 2, *seed+1)...)
	}
	mach := pim.NewMachine(*p, 1<<22)

	switch *algo {
	case "dpc":
		res := cluster.DPCPIM(mach, pts, cluster.DPCParams{DCut: *dcut, Eps: *cut}, *seed)
		fmt.Printf("DPC over %d points (d_cut=%g, cut=%g): %d clusters\n", len(pts), *dcut, *cut, res.NumClusters)
		maxD, peak := 0, -1
		for i, d := range res.Density {
			if d > maxD {
				maxD, peak = d, i
			}
		}
		fmt.Printf("global density peak: point %d with density %d\n", peak, maxD)
		sizes := map[int32]int{}
		for _, l := range res.Labels {
			sizes[l]++
		}
		fmt.Printf("largest cluster: %d points\n", maxSize(sizes))
	case "dbscan":
		res := cluster.DBSCANPIM(mach, pts, *eps, *minPts)
		core, noiseN := 0, 0
		for i := range pts {
			if res.Core[i] {
				core++
			}
			if res.Labels[i] < 0 {
				noiseN++
			}
		}
		fmt.Printf("DBSCAN over %d points (eps=%g, minPts=%d): %d clusters, %d core, %d noise\n",
			len(pts), *eps, *minPts, res.NumClusters, core, noiseN)
	default:
		fmt.Fprintln(os.Stderr, "unknown -algo (want dpc or dbscan)")
		os.Exit(2)
	}

	st := mach.Stats()
	fmt.Printf("\nPIM-Model cost: %s\n", st)
	workL, commL := mach.ModuleLoads()
	fmt.Printf("balance max/mean: work %.2f, comm %.2f (PIM-balanced ⇒ O(1))\n",
		pim.MaxLoadRatio(workL), pim.MaxLoadRatio(commL))
}

func maxSize(sizes map[int32]int) int {
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}
