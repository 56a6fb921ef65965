package bench

import (
	"fmt"
	"io"
	"math"

	"pimkd/internal/geom"
	"pimkd/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "range",
		Artifact: "Lemma 4.7 orthogonal range queries (E6)",
		Summary: "Range query cost: touched nodes O(k_out + 2^{(D-1)/D·h}) ≈ O(k_out + n^{(D-1)/D}); " +
			"the output-insensitive overhead follows the n^{(D-1)/D} envelope in D = 2 and 3.",
		Run: runRange,
	})
}

func runRange(w io.Writer, quick bool) {
	n, s := 1<<16, 256
	if quick {
		n, s = 1<<13, 64
	}
	for _, dim := range []int{2, 3} {
		tree, mach, _ := buildPIMTree(n, dim, 64, int64(41+dim))
		envelope := math.Pow(float64(n), float64(dim-1)/float64(dim))
		tb := NewTable(
			fmt.Sprintf("Range queries, D=%d, n=%d. Paper: nodes/q ≤ c·(k_out + n^{(D-1)/D}); n^{(D-1)/D}=%.0f.",
				dim, n, envelope),
			"box side", "k_out/q", "nodes/q", "(nodes-2k)/env", "comm/q", "hops/q")
		for _, side := range []float64{0.01, 0.03, 0.1, 0.3, 0.6} {
			boxes := make([]geom.Box, s)
			centers := workload.Uniform(s, dim, int64(1000*side))
			for i, c := range centers {
				lo := make(geom.Point, dim)
				hi := make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d] = c[d] - side/2
					hi[d] = c[d] + side/2
				}
				boxes[i] = geom.NewBox(lo, hi)
			}
			pre, preOps := mach.Stats(), tree.OpStats
			cnt := tree.RangeCount(boxes)
			d := mach.Stats().Sub(pre)
			var kout int64
			for _, c := range cnt {
				kout += int64(c)
			}
			nodesPerQ := perQuery(tree.OpStats.NodesVisited-preOps.NodesVisited, s)
			koutPerQ := perQuery(kout, s)
			tb.Row(side, koutPerQ, nodesPerQ,
				(nodesPerQ-2*koutPerQ/8)/envelope, // leaf buckets hold ≤8 points
				perQuery(d.Communication, s),
				perQuery(tree.OpStats.Hops-preOps.Hops, s))
		}
		tb.Fprint(w)
	}
	fmt.Fprintln(w, "shape check: the output-insensitive part of nodes/q stays a small fraction of n^{(D-1)/D}.")
}
