package cluster

import (
	"math"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

func TestDPCAgreesWithBruteForce(t *testing.T) {
	pts := workload.GaussianClusters(400, 2, 5, 0.03, 42)
	par := DPCParams{DCut: 0.05, Eps: 0.15}
	mach := pim.NewMachine(8, 1<<20)
	got := DPCPIM(mach, pts, par, 1)
	want := DPCBrute(pts, par)
	for i := range pts {
		if got.Density[i] != want.Density[i] {
			t.Fatalf("density[%d] = %d want %d", i, got.Density[i], want.Density[i])
		}
		if got.DependentID[i] != want.DependentID[i] {
			t.Fatalf("dependent[%d] = %d want %d (dist %g vs %g)",
				i, got.DependentID[i], want.DependentID[i], got.DependentDist[i], want.DependentDist[i])
		}
		if want.DependentID[i] >= 0 && math.Abs(got.DependentDist[i]-want.DependentDist[i]) > 1e-9 {
			t.Fatalf("dependentDist[%d] = %g want %g", i, got.DependentDist[i], want.DependentDist[i])
		}
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters %d want %d", got.NumClusters, want.NumClusters)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if (got.Labels[i] == got.Labels[j]) != (want.Labels[i] == want.Labels[j]) {
				t.Fatalf("pair (%d,%d) cluster relation differs", i, j)
			}
		}
	}
}

func TestDPCSharedMatchesPIM(t *testing.T) {
	pts := workload.GaussianClusters(500, 2, 4, 0.04, 7)
	par := DPCParams{DCut: 0.06, Eps: 0.2}
	mach := pim.NewMachine(16, 1<<20)
	pimRes := DPCPIM(mach, pts, par, 3)
	sharedRes, meter := DPCShared(pts, par, 3)
	for i := range pts {
		if pimRes.Density[i] != sharedRes.Density[i] {
			t.Fatalf("density[%d]: pim %d shared %d", i, pimRes.Density[i], sharedRes.Density[i])
		}
		if pimRes.DependentID[i] != sharedRes.DependentID[i] {
			t.Fatalf("dependent[%d]: pim %d shared %d", i, pimRes.DependentID[i], sharedRes.DependentID[i])
		}
	}
	if meter.NodeVisits == 0 {
		t.Fatal("shared baseline metered no node visits")
	}
}

// TestDPCEmptyBallRadius: a negative or NaN d_cut is the empty ball in all
// three implementations, so every density is zero and they still agree.
func TestDPCEmptyBallRadius(t *testing.T) {
	pts := workload.GaussianClusters(200, 2, 3, 0.03, 9)
	for _, dcut := range []float64{-0.05, math.NaN()} {
		par := DPCParams{DCut: dcut, Eps: 0.1}
		want := DPCBrute(pts, par)
		pimRes := DPCPIM(pim.NewMachine(8, 1<<20), pts, par, 1)
		shared, _ := DPCShared(pts, par, 1)
		for i := range pts {
			if want.Density[i] != 0 || pimRes.Density[i] != 0 || shared.Density[i] != 0 {
				t.Fatalf("d_cut=%g density[%d]: brute %d pim %d shared %d",
					dcut, i, want.Density[i], pimRes.Density[i], shared.Density[i])
			}
			if pimRes.DependentID[i] != want.DependentID[i] || shared.DependentID[i] != want.DependentID[i] {
				t.Fatalf("d_cut=%g dependent[%d]: brute %d pim %d shared %d",
					dcut, i, want.DependentID[i], pimRes.DependentID[i], shared.DependentID[i])
			}
		}
	}
}

// TestDPCLargeDistributedBuild exercises the distributed construction path
// (sketch + per-module builds + stitching) which once dropped the priority
// augmentation at stitch nodes — a regression test for exactly that.
func TestDPCLargeDistributedBuild(t *testing.T) {
	pts := workload.GaussianClusters(2100, 2, 3, 0.015, 5)
	par := DPCParams{DCut: 0.01, Eps: 0.1}
	mach := pim.NewMachine(16, 1<<22)
	got := DPCPIM(mach, pts, par, 1)
	want := DPCBrute(pts, par)
	for i := range pts {
		if got.DependentID[i] != want.DependentID[i] {
			t.Fatalf("dependent[%d]: got %d (d=%g) want %d (d=%g)",
				i, got.DependentID[i], got.DependentDist[i],
				want.DependentID[i], want.DependentDist[i])
		}
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters %d want %d", got.NumClusters, want.NumClusters)
	}
}

func TestDBSCANAgreesWithBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts := workload.GaussianClusters(300, 2, 4, 0.02, seed)
		pts = append(pts, workload.Uniform(60, 2, seed+100)...) // noise backdrop
		eps, minPts := 0.04, 8
		mach := pim.NewMachine(8, 1<<20)
		got := DBSCANPIM(mach, pts, eps, minPts)
		want := DBSCANBrute(pts, eps, minPts)
		checkDBSCANEquivalent(t, pts, eps, got, want)
	}
}

func TestDBSCANOneModuleIsSharedBaseline(t *testing.T) {
	pts := workload.GaussianClusters(250, 2, 3, 0.02, 9)
	eps, minPts := 0.05, 6
	p1 := pim.NewMachine(1, 1<<20)
	p8 := pim.NewMachine(8, 1<<20)
	a := DBSCANPIM(p1, pts, eps, minPts)
	b := DBSCANPIM(p8, pts, eps, minPts)
	for i := range pts {
		if a.Core[i] != b.Core[i] {
			t.Fatalf("core[%d] differs across machine sizes", i)
		}
	}
	if a.NumClusters != b.NumClusters {
		t.Fatalf("cluster count differs: %d vs %d", a.NumClusters, b.NumClusters)
	}
	// All work lands on the single module in the baseline.
	w, _ := p1.ModuleLoads()
	if w[0] == 0 {
		t.Fatal("baseline module did no work")
	}
}

// checkDBSCANEquivalent verifies got against the brute reference: identical
// core sets, identical core-core cluster relations, and valid border/noise
// assignment (border labels must be witnessed by an in-range core point).
func checkDBSCANEquivalent(t *testing.T, pts []geom.Point, eps float64, got, want DBSCANResult) {
	t.Helper()
	eps2 := eps * eps
	for i := range pts {
		if got.Core[i] != want.Core[i] {
			t.Fatalf("core[%d]: got %v want %v", i, got.Core[i], want.Core[i])
		}
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters: got %d want %d", got.NumClusters, want.NumClusters)
	}
	for i := range pts {
		if !got.Core[i] {
			continue
		}
		for j := i + 1; j < len(pts); j++ {
			if !got.Core[j] {
				continue
			}
			if (got.Labels[i] == got.Labels[j]) != (want.Labels[i] == want.Labels[j]) {
				t.Fatalf("core pair (%d,%d) cluster relation differs", i, j)
			}
		}
	}
	for i := range pts {
		if got.Core[i] {
			if got.Labels[i] < 0 {
				t.Fatalf("core point %d unlabeled", i)
			}
			continue
		}
		if got.Labels[i] >= 0 {
			// Border: some in-range core point must share this label.
			ok := false
			for j := range pts {
				if got.Core[j] && geom.Dist2(pts[i], pts[j]) <= eps2 && got.Labels[j] == got.Labels[i] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border point %d has unwitnessed label %d", i, got.Labels[i])
			}
		} else {
			// Noise: no core point within eps.
			for j := range pts {
				if got.Core[j] && geom.Dist2(pts[i], pts[j]) <= eps2 {
					t.Fatalf("point %d marked noise but core %d is in range", i, j)
				}
			}
		}
	}
}
