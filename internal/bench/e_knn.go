package bench

import (
	"fmt"
	"io"

	"pimkd/internal/core"
	"pimkd/internal/mathx"
	"pimkd/internal/pkdtree"
	"pimkd/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "knn",
		Artifact: "Table 1 row kNN + Theorem 4.5 (E4)",
		Summary: "Batched kNN on kNN-friendly data: expected Θ(k) leaves touched and O(k·log* P) " +
			"communication per query, versus the shared-memory O(k·log n) node visits.",
		Run: runKNN,
	})
	register(Experiment{
		ID:       "ann",
		Artifact: "Table 1 row (1+ε)-ANN + Theorem 4.6 (E5)",
		Summary:  "Approximate kNN: touched nodes shrink as ε grows (the Θ(k·ε^{-D}) envelope); communication stays O(log* P) per touched node.",
		Run:      runANN,
	})
}

func runKNN(w io.Writer, quick bool) {
	n, s := 1<<16, 1<<11
	if quick {
		n, s = 1<<13, 1<<9
	}
	const p, dim = 64, 2
	logStarP := float64(mathx.LogStar(p))
	tree, mach, pts := buildPIMTree(n, dim, p, 21)
	pk := pkdtree.New(pkdtree.Config{Dim: dim, Seed: 4}, makePKDItems(pts))
	qs := workload.Sample(pts, s, 0.002, 23)

	tb := NewTable(
		fmt.Sprintf("kNN batch (n=%d, S=%d, P=%d). Paper: leaves/q = Θ(k), comm/(q·k) ≈ c·log*P flat in k;"+
			" shared-memory visits/(q·k) carries the log n factor.", n, s, p),
		"k", "pim words/q", "words/(q·k)", "hops/q", "hops/(q·k·log*P)", "leaves/q", "leaves/q/k",
		"pkd words/q", "pkd/(q·k)")
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		pre, preOps := mach.Stats(), tree.OpStats
		tree.KNN(qs, k)
		d := mach.Stats().Sub(pre)
		hops, leaves := tree.OpStats.Hops-preOps.Hops, tree.OpStats.LeavesTouched-preOps.LeavesTouched
		pk.Meter.Reset()
		for _, q := range qs {
			pk.KNN(q, k)
		}
		tb.Row(k,
			perQuery(d.Communication, s),
			perQuery(d.Communication, s)/float64(k),
			perQuery(hops, s),
			perQuery(hops, s)/(float64(k)*logStarP),
			perQuery(leaves, s),
			perQuery(leaves, s)/float64(k),
			perQuery(pk.Meter.NodeVisits*core.NodeWords(dim), s),
			perQuery(pk.Meter.NodeVisits*core.NodeWords(dim), s)/float64(k))
	}
	tb.Fprint(w)
	fmt.Fprintln(w, "shape check: leaves/q/k and comm/(q·k) flatten with k (Theorem 4.5's Θ(k) leaf bound),")
	fmt.Fprintln(w, "while pkd visits per query retain an additive log n term visible at small k.")
}

func runANN(w io.Writer, quick bool) {
	n, s, k := 1<<16, 1<<11, 8
	if quick {
		n, s = 1<<13, 1<<9
	}
	const p, dim = 64, 2
	tree, mach, pts := buildPIMTree(n, dim, p, 31)
	qs := workload.Sample(pts, s, 0.002, 37)

	tb := NewTable(
		fmt.Sprintf("(1+ε)-ANN batch (n=%d, S=%d, k=%d, P=%d). Paper: work/comm shrink as ε grows "+
			"(the ε^{-D} envelope of Theorem 4.6).", n, s, k, p),
		"eps", "comm/q", "hops/q", "nodes/q", "leaves/q", "vs exact nodes")
	var exactNodes float64
	for i, eps := range []float64{0, 0.1, 0.25, 0.5, 1.0, 2.0} {
		pre, preOps := mach.Stats(), tree.OpStats
		tree.ANN(qs, k, eps)
		d := mach.Stats().Sub(pre)
		nodes := perQuery(tree.OpStats.NodesVisited-preOps.NodesVisited, s)
		if i == 0 {
			exactNodes = nodes
		}
		tb.Row(eps,
			perQuery(d.Communication, s),
			perQuery(tree.OpStats.Hops-preOps.Hops, s),
			nodes,
			perQuery(tree.OpStats.LeavesTouched-preOps.LeavesTouched, s),
			nodes/exactNodes)
	}
	tb.Fprint(w)
}
