package core

import (
	"sync"
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// labelBalance sums, per round label, every round's maximum and total module
// work.
type labelBalance struct {
	mu         sync.Mutex
	max, total map[string]int64
}

func (o *labelBalance) ObserveRound(rec pim.RoundRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.max[rec.Label] += rec.MaxWork
	o.total[rec.Label] += rec.TotalWork
}

// TestInsertRoundBalance checks Def. 1 PIM-balance per round label over
// four 1024-point insert batches into n = 2^15 uniform points at P = 64,
// once uniform and once drawn from 16 Gaussian clusters (σ = 0.05): for
// every label, Σ max module work over Σ mean module work is at most 3. A
// batch's small rebuilds each run on one module, so they must be spread
// over the modules; hashed on the batch alone, every one of them landed on
// the same module and insert:commit read above 50.
func TestInsertRoundBalance(t *testing.T) {
	const n, p, batch, maxRatio = 1 << 15, 64, 1024, 3.0
	for _, c := range []struct {
		name string
		pts  func(seed int64) []geom.Point
	}{
		{"uniform", func(seed int64) []geom.Point { return workload.Uniform(batch, 2, seed) }},
		{"clustered", func(seed int64) []geom.Point { return workload.GaussianClusters(batch, 2, 16, 0.05, seed) }},
	} {
		mach := pim.NewMachine(p, 1<<22)
		tree := New(Config{Dim: 2, Seed: 3}, mach)
		tree.Build(makeTestItems(workload.Uniform(n, 2, 5), 0))
		obs := &labelBalance{max: map[string]int64{}, total: map[string]int64{}}
		mach.SetObserver(obs)
		for b := 0; b < 4; b++ {
			tree.BatchInsert(makeTestItems(c.pts(int64(10+b)), int32(n+b*batch)))
		}
		if tree.OpStats.Rebuilds == 0 {
			t.Fatalf("%s: no batch rebuilt a subtree", c.name)
		}
		for label, total := range obs.total {
			if total == 0 {
				continue
			}
			ratio := float64(obs.max[label]) * p / float64(total)
			t.Logf("%s %s: %.2f", c.name, label, ratio)
			if ratio > maxRatio {
				t.Errorf("%s %s: Σmax/Σmean module work %.2f, want ≤ %v", c.name, label, ratio, maxRatio)
			}
		}
	}
}
