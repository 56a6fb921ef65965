package core

import (
	"runtime"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/trace"
	"pimkd/internal/workload"
)

// tallyTotals is what a traversal batch must meter the same however its
// queries are chunked: the pim.Stats totals that do not depend on which
// walker reaches a contended node first, and the walkers' OpStats counts
// that do not either (Hops does, since a walker's hop depends on where the
// walker before it left the node).
type tallyTotals struct {
	rounds, pimWork, cpuWork        int64
	nodes, leaves, reported, traced int64
}

// TestTallyConservation runs one 8192-query hot-spot batch (a 1e-4 box) of
// kNN, range report, radius count and tree join at GOMAXPROCS 1, 2 and 8:
// the query walks run as one chunk at GOMAXPROCS 1 and as four, one tally
// each, at 2 and 8. The totals must be equal at every setting, and a
// tracer attached to the machine must account for exactly what the machine
// metered.
func TestTallyConservation(t *testing.T) {
	const n, queries, p = 1 << 14, 8192, 64
	items := makeTestItems(workload.Uniform(n, 2, 51), 0)
	hot := workload.Hotspot(queries, 2, 1e-4, 52)
	boxes := make([]geom.Box, len(hot))
	for i, q := range hot {
		boxes[i] = geom.Box{Lo: geom.Point{q[0] - 0.01, q[1] - 0.01}, Hi: geom.Point{q[0] + 0.01, q[1] + 0.01}}
	}
	probeItems := makeTestItems(hot[:1024], n)

	run := func(procs int) tallyTotals {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		mach := pim.NewMachine(p, 1<<22)
		tree := New(Config{Dim: 2, Seed: 53}, mach)
		tree.Build(items)
		probe := New(Config{Dim: 2, Seed: 54}, pim.NewMachine(p, 1<<22))
		probe.Build(probeItems)

		tr := trace.New(1 << 12)
		mach.SetObserver(tr)
		pre, ops := mach.Stats(), tree.OpStats
		tree.KNN(hot, 8)
		tree.RangeReport(boxes)
		tree.RadiusCount(hot, 0.01)
		tree.JoinTrees(probe, 0.001)
		d := mach.Stats().Sub(pre)
		if err := tr.Totals().CheckConservation(d); err != nil {
			t.Errorf("GOMAXPROCS %d: %v", procs, err)
		}
		if got := tr.Totals().CPUWork; got != d.CPUWork {
			t.Errorf("GOMAXPROCS %d: traced cpuWork %d, machine metered %d", procs, got, d.CPUWork)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("GOMAXPROCS %d: the tracer dropped %d records", procs, tr.Dropped())
		}
		if d.CPUWork == 0 {
			t.Errorf("GOMAXPROCS %d: the hot-spot batch pulled no node to the CPU", procs)
		}
		return tallyTotals{
			rounds: d.Rounds, pimWork: d.PIMWork, cpuWork: d.CPUWork,
			nodes:    tree.OpStats.NodesVisited - ops.NodesVisited,
			leaves:   tree.OpStats.LeavesTouched - ops.LeavesTouched,
			reported: tree.OpStats.Reported - ops.Reported,
			traced:   tr.Totals().Records,
		}
	}
	want := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); got != want {
			t.Errorf("GOMAXPROCS %d metered %+v, GOMAXPROCS 1 %+v", procs, got, want)
		}
	}
	t.Logf("%+v", want)
}
