// Concurrency test for the coalescing service, designed to be meaningful
// under -race (CI runs `go test -race ./internal/serve/`): many client
// goroutines submit reads while update batches churn the tree. It asserts
// the three batching contracts:
//
//	(a) every request gets exactly one reply (per-call, plus the batch
//	    records account for every admitted request exactly once),
//	(b) no read batch ever observes a mid-rebuild tree (the tree passes
//	    CheckInvariants at every read-batch boundary, and read-your-writes
//	    holds across insert→lookup and delete→lookup pairs),
//	(c) batches never exceed MaxBatch and the linger deadline always seals
//	    a forming batch (bounded by a generous scheduling slack).
//
// It also checks that a round tracer attached for the whole run accounts
// for exactly what the machine metered under concurrent serving.
package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/trace"
	"pimkd/internal/workload"
)

func TestConcurrentCoalescingChurn(t *testing.T) {
	const (
		nBase     = 1500
		dim       = 2
		p         = 8
		maxBatch  = 32
		maxLinger = time.Millisecond
		writers   = 4
		writerOps = 60
		readers   = 6
		readerOps = 90
	)
	// lingerSlack bounds measured linger: the deadline arms a timer at
	// MaxLinger, but the timer goroutine can be scheduled late on a loaded
	// (or race-instrumented) machine, so the policy bound carries OS
	// scheduling slack.
	const lingerSlack = 2 * time.Second

	mach := pim.NewMachine(p, 1<<20)
	// Attached before Build, so its totals cover the machine's lifetime.
	tracer := trace.New(0)
	mach.SetObserver(tracer)
	tree := core.New(core.Config{Dim: dim, Seed: 17}, mach)
	base := workload.Uniform(nBase, dim, 19)
	items := make([]core.Item, nBase)
	for i, pt := range base {
		items[i] = core.Item{P: pt, ID: int32(i)}
	}
	tree.Build(items)

	var (
		recMu      sync.Mutex
		recs       []BatchRecord
		invariantE []error
	)
	svc := New(Config{
		MaxBatch:   maxBatch,
		MaxLinger:  maxLinger,
		MaxPending: 128,
		Seed:       7,
		OnBatch: func(r BatchRecord) {
			// Runs on the executor goroutine, which owns the tree: a
			// consistent view here proves no reader can be mid-rebuild.
			recMu.Lock()
			defer recMu.Unlock()
			recs = append(recs, r)
			if err := tree.CheckInvariants(); err != nil {
				invariantE = append(invariantE, err)
			}
		},
	}, tree)

	ctx := context.Background()
	var issued atomic.Int64
	var wg sync.WaitGroup

	// Writers: insert unique items, read them back, occasionally delete
	// and verify the delete is visible.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var mine []core.Item
			for i := 0; i < writerOps; i++ {
				it := core.Item{
					P:  geom.Point{rng.Float64(), rng.Float64()},
					ID: int32(100000 + g*1000 + i),
				}
				if _, err := svc.Insert(ctx, it); err != nil {
					t.Errorf("writer %d insert: %v", g, err)
					return
				}
				issued.Add(1)
				mine = append(mine, it)
				got, _, err := svc.Lookup(ctx, it.P)
				if err != nil {
					t.Errorf("writer %d lookup: %v", g, err)
					return
				}
				issued.Add(1)
				if !containsID(got, it.ID) {
					t.Errorf("writer %d: inserted item %d not visible", g, it.ID)
				}
				if i%10 == 9 {
					victim := mine[rng.Intn(len(mine)-1)]
					if _, err := svc.Delete(ctx, victim); err != nil {
						t.Errorf("writer %d delete: %v", g, err)
						return
					}
					issued.Add(1)
					got, _, err := svc.Lookup(ctx, victim.P)
					if err != nil {
						t.Errorf("writer %d lookup-after-delete: %v", g, err)
						return
					}
					issued.Add(1)
					if containsID(got, victim.ID) {
						t.Errorf("writer %d: deleted item %d still visible", g, victim.ID)
					}
				}
			}
		}(g)
	}

	// Readers: lookups of never-deleted base points, kNN, and small range
	// queries, all while the writers churn.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < readerOps; i++ {
				switch i % 3 {
				case 0:
					j := rng.Intn(nBase)
					got, _, err := svc.Lookup(ctx, base[j])
					if err != nil {
						t.Errorf("reader %d lookup: %v", g, err)
						return
					}
					issued.Add(1)
					if !containsID(got, int32(j)) {
						t.Errorf("reader %d: base item %d missing", g, j)
					}
				case 1:
					q := geom.Point{rng.Float64(), rng.Float64()}
					ns, _, err := svc.KNN(ctx, q, 4)
					if err != nil {
						t.Errorf("reader %d knn: %v", g, err)
						return
					}
					issued.Add(1)
					if len(ns) != 4 {
						t.Errorf("reader %d: knn returned %d of 4", g, len(ns))
					}
					for j := 1; j < len(ns); j++ {
						if ns[j].Dist < ns[j-1].Dist {
							t.Errorf("reader %d: knn unsorted", g)
						}
					}
				case 2:
					lo := geom.Point{rng.Float64() * 0.9, rng.Float64() * 0.9}
					hi := geom.Point{lo[0] + 0.1, lo[1] + 0.1}
					got, _, err := svc.Range(ctx, geom.NewBox(lo, hi))
					if err != nil {
						t.Errorf("reader %d range: %v", g, err)
						return
					}
					issued.Add(1)
					box := geom.NewBox(lo, hi)
					for _, it := range got {
						if !box.Contains(it.P) {
							t.Errorf("reader %d: range item outside box", g)
						}
					}
				}
			}
		}(g)
	}

	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Every round the machine metered was observed exactly once.
	if err := tracer.Totals().CheckConservation(mach.Stats()); err != nil {
		t.Fatalf("trace conservation under concurrent serving: %v", err)
	}

	// (b) the tree stayed consistent at every batch boundary.
	for _, err := range invariantE {
		t.Errorf("invariant violation observed by a batch: %v", err)
	}

	// (a) every admitted request appears in exactly one executed batch.
	var inBatches int64
	for _, r := range recs {
		inBatches += int64(r.Size)
	}
	if inBatches != issued.Load() {
		t.Fatalf("batch records account for %d requests, %d issued", inBatches, issued.Load())
	}
	snap := svc.Metrics()
	if snap.TotalRequests != issued.Load() {
		t.Fatalf("metrics saw %d requests, %d issued", snap.TotalRequests, issued.Load())
	}

	// (c) batch-size cap and linger deadline.
	writeEpochs := map[int64]int{}
	epochBatches := map[int64]int{}
	for _, r := range recs {
		if r.Size > maxBatch {
			t.Fatalf("batch of %d exceeds MaxBatch %d", r.Size, maxBatch)
		}
		if r.Linger > maxLinger+lingerSlack {
			t.Fatalf("batch lingered %v past the %v deadline", r.Linger, maxLinger)
		}
		epochBatches[r.Epoch]++
		if r.Kind == "insert" || r.Kind == "delete" {
			writeEpochs[r.Epoch]++
		}
	}
	// Epoch contract: a write batch owns its epoch exclusively.
	for e, writes := range writeEpochs {
		if writes != 1 || epochBatches[e] != 1 {
			t.Fatalf("epoch %d mixes a write with %d other batches", e, epochBatches[e]-1)
		}
	}

	// Under this concurrency, coalescing must actually happen: the mean
	// batch size observed by the service comfortably exceeds 1.
	if snap.MeanBatchSize <= 1.05 {
		t.Fatalf("mean batch size %.2f: no coalescing under concurrent load", snap.MeanBatchSize)
	}
	t.Logf("coalescing: %d requests in %d batches (mean %.1f), %d epochs",
		snap.TotalRequests, snap.TotalBatches, snap.MeanBatchSize, snap.Epochs)
}
