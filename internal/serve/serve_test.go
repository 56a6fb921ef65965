package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// newTestService builds a small uniform tree and wraps it in a Service.
func newTestService(t testing.TB, n int, cfg Config) (*Service, []geom.Point) {
	t.Helper()
	const dim, p = 2, 8
	mach := pim.NewMachine(p, 1<<20)
	tree := core.New(core.Config{Dim: dim, Seed: 11}, mach)
	pts := workload.Uniform(n, dim, 13)
	items := make([]core.Item, n)
	for i, pt := range pts {
		items[i] = core.Item{P: pt, ID: int32(i)}
	}
	tree.Build(items)
	return New(cfg, tree), pts
}

// plugExecutor makes svc busy, so requests form batches as they do under
// load instead of sealing on arrival at an idle executor. It submits one
// aggregate request — a kind no test that plugs uses — and holds that batch
// in testHookPreBatch until the returned unplug is called or svc closes. A
// hook the test installed before keeps running for every other batch.
// unplug(behind) first waits until behind sealed batches queue behind the
// plug; it is idempotent.
func plugExecutor(t testing.TB, svc *Service) (unplug func(behind int)) {
	t.Helper()
	parked, released := make(chan struct{}), make(chan struct{})
	prev := svc.testHookPreBatch
	plugged := false // executor-only
	svc.testHookPreBatch = func(b *batch) {
		if b.key.kind == KindAggregate && !plugged {
			plugged = true
			close(parked)
			select {
			case <-released:
			case <-svc.closing:
			}
			return
		}
		if prev != nil {
			prev(b)
		}
	}
	lo, hi := make(geom.Point, svc.Dim()), make(geom.Point, svc.Dim())
	for d := range hi {
		hi[d] = 1
	}
	go svc.Aggregate(context.Background(), geom.NewBox(lo, hi))
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the plug batch never reached the executor")
	}
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(released) }) })
	return func(behind int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); len(svc.batchCh) < behind; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d batches sealed behind the plug", len(svc.batchCh), behind)
			}
		}
		once.Do(func() { close(released) })
	}
}

// kindStats returns the per-kind aggregate named kind (zero if none ran).
func kindStats(snap MetricsSnapshot, kind string) KindStats {
	for _, ks := range snap.Kinds {
		if ks.Kind == kind {
			return ks
		}
	}
	return KindStats{}
}

func TestFullSeal(t *testing.T) {
	// With an effectively infinite linger, progress requires the MaxBatch
	// seal path: 16 concurrent lookups must form two full batches of 8.
	// The lookups form behind a plugged executor.
	svc, pts := newTestService(t, 512, Config{MaxBatch: 8, MaxLinger: time.Hour})
	defer svc.Close()
	unplug := plugExecutor(t, svc)

	var wg sync.WaitGroup
	infos := make([]BatchInfo, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, info, err := svc.Lookup(context.Background(), pts[i])
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
			}
			infos[i] = info
		}(i)
	}
	unplug(2)
	wg.Wait()
	for i, info := range infos {
		if info.Size != 8 {
			t.Fatalf("request %d rode a batch of size %d, want 8", i, info.Size)
		}
	}
	ks := kindStats(svc.Metrics(), "lookup")
	if ks.Batches != 2 || ks.Requests != 16 {
		t.Fatalf("batches=%d requests=%d, want 2/16", ks.Batches, ks.Requests)
	}
	if ks.SealedFull != 2 {
		t.Fatalf("sealed_full=%d, want 2", ks.SealedFull)
	}
}

func TestLingerSeal(t *testing.T) {
	// A lone request behind a busy executor must not wait for MaxBatch
	// company: the linger timer seals its singleton batch.
	svc, pts := newTestService(t, 256, Config{MaxBatch: 1024, MaxLinger: 5 * time.Millisecond})
	defer svc.Close()
	unplug := plugExecutor(t, svc)

	start := time.Now()
	var (
		items []core.Item
		info  BatchInfo
		err   error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		items, info, err = svc.Lookup(context.Background(), pts[3])
	}()
	unplug(1)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("singleton lookup took %v", elapsed)
	}
	if info.Size != 1 {
		t.Fatalf("singleton batch size %d", info.Size)
	}
	found := false
	for _, it := range items {
		if it.ID == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("lookup did not return the stored item")
	}
	if got := kindStats(svc.Metrics(), "lookup").SealedLinger; got != 1 {
		t.Fatalf("sealed_linger=%d, want 1", got)
	}
}

func TestIdleSeal(t *testing.T) {
	// At an idle executor a lone request seals on arrival: it neither waits
	// for MaxBatch company nor for the linger timer.
	svc, pts := newTestService(t, 256, Config{MaxBatch: 1024, MaxLinger: time.Hour})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, info, err := svc.Lookup(ctx, pts[3])
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 1 {
		t.Fatalf("singleton batch size %d", info.Size)
	}
	if got := kindStats(svc.Metrics(), "lookup").SealedIdle; got != 1 {
		t.Fatalf("sealed_idle=%d, want 1", got)
	}
}

func TestIdleSealOldestFirst(t *testing.T) {
	// Batches that formed while the executor was busy are all sealed when
	// it finishes, and run in the order their first requests arrived.
	var (
		mu   sync.Mutex
		recs []BatchRecord
	)
	svc, pts := newTestService(t, 256, Config{
		MaxBatch: 1024, MaxLinger: time.Hour,
		OnBatch: func(r BatchRecord) { mu.Lock(); recs = append(recs, r); mu.Unlock() },
	})
	defer svc.Close()
	unplug := plugExecutor(t, svc)

	box := geom.NewBox(geom.Point{0.2, 0.2}, geom.Point{0.4, 0.4})
	submits := []struct {
		kind string
		k    int
		call func() error
	}{
		{"knn", 2, func() error { _, _, err := svc.KNN(context.Background(), pts[0], 2); return err }},
		{"lookup", 0, func() error { _, _, err := svc.Lookup(context.Background(), pts[1]); return err }},
		{"knn", 5, func() error { _, _, err := svc.KNN(context.Background(), pts[2], 5); return err }},
		{"range", 0, func() error { _, _, err := svc.Range(context.Background(), box); return err }},
		{"join", 0, func() error { _, _, err := svc.Join(context.Background(), pts[3], 0.01); return err }},
	}
	var wg sync.WaitGroup
	for i, sub := range submits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sub.call(); err != nil {
				t.Errorf("%s: %v", sub.kind, err)
			}
		}()
		// Each batch starts forming before the next request is submitted.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			svc.mu.Lock()
			n := len(svc.pending)
			svc.mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d batches forming, want %d", n, i+1)
			}
		}
	}
	unplug(0)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 1+len(submits) {
		t.Fatalf("%d batches ran, want the plug and %d", len(recs), len(submits))
	}
	for i, sub := range submits {
		r := recs[1+i]
		if r.Kind != sub.kind || r.K != sub.k || r.SealedBy != "idle" {
			t.Fatalf("batch %d: %s k=%d sealed by %q, want %s k=%d sealed by idle", i, r.Kind, r.K, r.SealedBy, sub.kind, sub.k)
		}
	}
}

func TestServeBatchAllocs(t *testing.T) {
	// A singleton kNN batch pays the per-batch and per-round fixed cost
	// alone. Bracketing snapshots and round meters are reused, so that
	// cost is a few KB, not one P-wide vector per round.
	const (
		n, p  = 1 << 16, 64
		iters = 64
	)
	mach := pim.NewMachine(p, 1<<22)
	tree := core.New(core.Config{Dim: 2, Seed: 11}, mach)
	pts := workload.Uniform(n, 2, 13)
	items := make([]core.Item, n)
	for i, pt := range pts {
		items[i] = core.Item{P: pt, ID: int32(i)}
	}
	tree.Build(items)
	svc := New(Config{}, tree)
	defer svc.Close()
	qs := workload.Uniform(iters, 2, 14)
	ctx := context.Background()
	for i := 0; i < 8; i++ { // warm-up: the first batches size the scratch
		if _, _, err := svc.KNN(ctx, qs[i], 8); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		if _, info, err := svc.KNN(ctx, q, 8); err != nil || info.Size != 1 {
			t.Fatalf("kNN: batch size %d, err %v", info.Size, err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / iters
	t.Logf("a singleton kNN batch allocates %.0f B", perBatch)
	if perBatch > 6<<10 {
		t.Fatalf("a singleton kNN batch allocates %.0f B, want ≤ 6 KB", perBatch)
	}
}

func TestReadYourWrites(t *testing.T) {
	svc, _ := newTestService(t, 256, Config{MaxBatch: 16, MaxLinger: time.Millisecond})
	defer svc.Close()
	ctx := context.Background()

	it := core.Item{P: geom.Point{0.123, 0.456}, ID: 9001}
	if _, err := svc.Insert(ctx, it); err != nil {
		t.Fatal(err)
	}
	items, _, err := svc.Lookup(ctx, it.P)
	if err != nil {
		t.Fatal(err)
	}
	if !containsID(items, 9001) {
		t.Fatal("inserted item not visible to a later lookup")
	}
	// kNN at the exact point must report it at distance 0, sorted first.
	ns, _, err := svc.KNN(ctx, it.P, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || ns[0].ID != 9001 || ns[0].Dist != 0 {
		t.Fatalf("knn at stored point: %+v", ns)
	}
	if _, err := svc.Delete(ctx, it); err != nil {
		t.Fatal(err)
	}
	items, _, err = svc.Lookup(ctx, it.P)
	if err != nil {
		t.Fatal(err)
	}
	if containsID(items, 9001) {
		t.Fatal("deleted item still visible")
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	svc, pts := newTestService(t, 400, Config{MaxBatch: 8, MaxLinger: time.Millisecond})
	defer svc.Close()
	box := geom.NewBox(geom.Point{0.2, 0.2}, geom.Point{0.6, 0.5})
	items, _, err := svc.Range(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if box.Contains(p) {
			want++
		}
	}
	if len(items) != want {
		t.Fatalf("range returned %d items, brute force says %d", len(items), want)
	}
	for _, it := range items {
		if !box.Contains(it.P) {
			t.Fatalf("range reported item outside the box: %v", it.P)
		}
	}
}

func TestKNNBatchesHomogeneousInK(t *testing.T) {
	// Concurrent kNN at k=2 and k=4 must never share a batch; each reply
	// carries exactly its own k results.
	var mu sync.Mutex
	var recs []BatchRecord
	svc, pts := newTestService(t, 512, Config{
		MaxBatch: 64, MaxLinger: time.Millisecond,
		OnBatch: func(r BatchRecord) { mu.Lock(); recs = append(recs, r); mu.Unlock() },
	})
	defer svc.Close()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 2
			if i%2 == 1 {
				k = 4
			}
			ns, _, err := svc.KNN(context.Background(), pts[i], k)
			if err != nil {
				t.Errorf("knn: %v", err)
				return
			}
			if len(ns) != k {
				t.Errorf("knn k=%d returned %d neighbors", k, len(ns))
			}
			for j := 1; j < len(ns); j++ {
				if ns[j].Dist < ns[j-1].Dist {
					t.Errorf("knn results unsorted: %v", ns)
				}
			}
		}(i)
	}
	wg.Wait()
	svc.Close()
	for _, r := range recs {
		if r.Kind == "knn" && r.K != 2 && r.K != 4 {
			t.Fatalf("knn batch with unexpected k=%d", r.K)
		}
	}
}

func TestCloseFlushesPending(t *testing.T) {
	svc, pts := newTestService(t, 256, Config{MaxBatch: 1024, MaxLinger: time.Hour})
	plugExecutor(t, svc) // Close releases the plug

	var wg sync.WaitGroup
	infos := make([]BatchInfo, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, infos[i], errs[i] = svc.Lookup(context.Background(), pts[i])
		}(i)
	}
	// Give the submitters time to enqueue, then flush via Close.
	time.Sleep(50 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("flushed request %d errored: %v", i, errs[i])
		}
		if infos[i].Size != 3 {
			t.Fatalf("flushed batch size %d, want 3", infos[i].Size)
		}
	}
	if got := kindStats(svc.Metrics(), "lookup").SealedFlush; got != 1 {
		t.Fatalf("sealed_flush=%d, want 1", got)
	}
	if _, _, err := svc.Lookup(context.Background(), pts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close lookup: %v, want ErrClosed", err)
	}
}

func TestBackpressureBlocksAdmission(t *testing.T) {
	// The plug and two admitted requests exhaust MaxPending; a third
	// submitter must block at admission and honor its context deadline.
	svc, pts := newTestService(t, 256, Config{MaxBatch: 8, MaxLinger: 300 * time.Millisecond, MaxPending: 3})
	defer svc.Close()
	unplug := plugExecutor(t, svc)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := svc.Lookup(context.Background(), pts[i]); err != nil {
				t.Errorf("admitted lookup: %v", err)
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // both admitted, batch still lingering
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := svc.Lookup(ctx, pts[2])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overloaded submit: %v, want DeadlineExceeded", err)
	}
	unplug(0)
	wg.Wait()
}

func TestBadRequests(t *testing.T) {
	svc, pts := newTestService(t, 64, Config{MaxBatch: 8, MaxLinger: time.Millisecond})
	defer svc.Close()
	ctx := context.Background()
	if _, _, err := svc.Lookup(ctx, geom.Point{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, _, err := svc.KNN(ctx, pts[0], 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := svc.Lookup(canceled, pts[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit: %v", err)
	}
}

func containsID(items []core.Item, id int32) bool {
	for _, it := range items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// almostEqual guards the float fields surfaced through JSON round trips.
func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
