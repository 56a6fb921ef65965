package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/pim"
)

// TestBatchPanicFailsOnlyAffectedBatch is the satellite-1 regression test:
// a query whose batch execution panics must fail with ErrBatchPanic while
// the executor, the service, and every other batch keep working.
func TestBatchPanicFailsOnlyAffectedBatch(t *testing.T) {
	// The four kNN requests form one full batch behind the plug.
	svc, pts := newTestService(t, 512, Config{MaxBatch: 4, MaxLinger: time.Hour})
	defer svc.Close()

	var once sync.Once
	svc.testHookPreBatch = func(b *batch) {
		if b.key.kind == KindKNN {
			once.Do(func() { panic("poisoned query") })
		}
	}
	unplug := plugExecutor(t, svc)

	// The poisoned batch: every rider fails with ErrBatchPanic.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = svc.KNN(context.Background(), pts[i], 3)
		}(i)
	}
	unplug(1)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBatchPanic) {
			t.Fatalf("request %d: err = %v, want ErrBatchPanic", i, err)
		}
	}

	// The service survived: later batches (same kind included) succeed.
	if _, _, err := svc.KNN(context.Background(), pts[9], 3); err != nil {
		t.Fatalf("KNN after panic: %v", err)
	}
	if _, _, err := svc.Lookup(context.Background(), pts[10]); err != nil {
		t.Fatalf("Lookup after panic: %v", err)
	}
	if got := svc.Metrics().Robustness.BatchPanics; got != 1 {
		t.Fatalf("BatchPanics = %d, want 1", got)
	}
}

// TestCanceledContextReleasesSlot is the satellite-2 regression test: a
// caller whose context is canceled while its batch is still forming must
// release its admission slot immediately, not hold it until the linger
// deadline fires.
func TestCanceledContextReleasesSlot(t *testing.T) {
	// MaxPending 2: the plug holds one slot and the canceled request's slot
	// is the only other, so the follow-up request can only be admitted if
	// cancellation released it.
	svc, pts := newTestService(t, 512, Config{
		MaxBatch:   64,
		MaxLinger:  time.Hour, // batches seal only when full — or at Close
		MaxPending: 2,
	})
	defer svc.Close()
	plugExecutor(t, svc) // Close releases the plug

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Lookup(ctx, pts[0])
		done <- err
	}()
	// Wait until the request is enqueued in a forming batch.
	deadline := time.Now().Add(2 * time.Second)
	for {
		svc.mu.Lock()
		n := len(svc.pending)
		svc.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never reached a forming batch")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lookup returned %v", err)
	}

	// The slot must be free: this submission would otherwise block forever
	// on the admission semaphore (the forming batch never seals on linger).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	select {
	case svc.tokens <- struct{}{}:
		<-svc.tokens // probe only; give it back
	case <-ctx2.Done():
		t.Fatal("admission slot was not released by cancellation")
	}
	// And the forming batch no longer contains the withdrawn request.
	svc.mu.Lock()
	for key, q := range svc.pending {
		if len(q.reqs) != 0 {
			svc.mu.Unlock()
			t.Fatalf("forming batch %v still holds %d request(s)", key, len(q.reqs))
		}
	}
	svc.mu.Unlock()
	if got := svc.Metrics().Robustness.CanceledRequests; got != 1 {
		t.Fatalf("CanceledRequests = %d, want 1", got)
	}
}

// TestShedAboveHighWater: above the high-water mark submissions fail fast
// with ErrOverloaded, and the HTTP layer turns that into 503 + Retry-After.
func TestShedAboveHighWater(t *testing.T) {
	svc, pts := newTestService(t, 512, Config{
		MaxBatch:       64,
		MaxLinger:      time.Hour,
		MaxPending:     8,
		ShedHighWater:  3,
		ShedRetryAfter: 3 * time.Second,
	})
	defer svc.Close()
	plugExecutor(t, svc) // Close releases the plug

	// Park two requests in a forming batch that will never seal; with the
	// plug they hold three slots, reaching the high-water mark.
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _ = svc.Lookup(ctx, pts[i])
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.tokens) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("parked requests never acquired their slots")
		}
		time.Sleep(time.Millisecond)
	}

	if _, _, err := svc.Lookup(context.Background(), pts[5]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submission above high water returned %v, want ErrOverloaded", err)
	}

	h := NewHandler(svc)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/lookup?p=0.5,0.5", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed HTTP status = %d, want 503", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if got := svc.Metrics().Robustness.Sheds; got < 2 {
		t.Fatalf("Sheds = %d, want >= 2", got)
	}

	cancel()
	wg.Wait()
}

// TestShedRetryAfterRoundsUp: the shed hint is ShedRetryAfter rounded up to
// whole seconds, like every router hint (httpapi.RetryAfterSecs) — rounding
// to nearest would tell a client shed for 1.4s to come back after 1.
func TestShedRetryAfterRoundsUp(t *testing.T) {
	svc, _ := newTestService(t, 16, Config{ShedRetryAfter: 1400 * time.Millisecond})
	defer svc.Close()
	rr := httptest.NewRecorder()
	if svc.okReply(rr, ErrOverloaded) || rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed reply: status %d, want 503", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
}

// faultNTimes escalates a module fault on the first n batch executions.
type faultNTimes struct {
	mu sync.Mutex
	n  int
}

func (f *faultNTimes) hook(b *batch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n > 0 {
		f.n--
		panic(&pim.ModuleFault{Kind: pim.FaultCrash, Module: 1, Injected: true})
	}
}

// TestTransientFaultRetried: a read batch whose execution dies with a typed
// machine fault is re-executed and its callers see clean results.
func TestTransientFaultRetried(t *testing.T) {
	svc, pts := newTestService(t, 512, Config{
		MaxBatch:     4,
		MaxLinger:    time.Millisecond,
		RetryBackoff: time.Microsecond,
	})
	defer svc.Close()

	f := &faultNTimes{n: 1}
	svc.testHookPreBatch = f.hook

	ns, _, err := svc.KNN(context.Background(), pts[0], 3)
	if err != nil {
		t.Fatalf("KNN across transient fault: %v", err)
	}
	if len(ns) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(ns))
	}
	rb := svc.Metrics().Robustness
	if rb.BatchFaults != 1 || rb.BatchRetries != 1 {
		t.Fatalf("robustness = %+v, want 1 fault and 1 retry", rb)
	}
}

// TestPersistentFaultSurfacesAfterRetries: when every retry faults too, the
// callers get ErrFault and the HTTP layer answers 503.
func TestPersistentFaultSurfacesAfterRetries(t *testing.T) {
	svc, pts := newTestService(t, 512, Config{
		MaxBatch:       4,
		MaxLinger:      time.Millisecond,
		RetryTransient: 1,
		RetryBackoff:   time.Microsecond,
	})
	defer svc.Close()

	f := &faultNTimes{n: 1 << 30} // never stops faulting
	svc.testHookPreBatch = f.hook

	_, _, err := svc.KNN(context.Background(), pts[0], 3)
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	rb := svc.Metrics().Robustness
	if rb.BatchFaults != 2 || rb.BatchRetries != 1 {
		t.Fatalf("robustness = %+v, want 2 faults, 1 retry", rb)
	}

	svc.testHookPreBatch = nil
	if _, _, err := svc.KNN(context.Background(), pts[1], 3); err != nil {
		t.Fatalf("KNN after persistent fault cleared: %v", err)
	}
}

// TestWriteBatchFaultNotRetried: a faulted update batch must fail without
// re-execution (replaying a partially applied write could double-apply).
func TestWriteBatchFaultNotRetried(t *testing.T) {
	svc, pts := newTestService(t, 512, Config{
		MaxBatch:     4,
		MaxLinger:    time.Millisecond,
		RetryBackoff: time.Microsecond,
	})
	defer svc.Close()

	f := &faultNTimes{n: 1}
	svc.testHookPreBatch = f.hook

	_, err := svc.Insert(context.Background(), core.Item{P: pts[0], ID: 9001})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault (no retry for writes)", err)
	}
	rb := svc.Metrics().Robustness
	if rb.BatchRetries != 0 {
		t.Fatalf("write batch was retried %d times", rb.BatchRetries)
	}
}

// TestDrainCompletesAdmittedRequests: Close flushes forming batches and
// every admitted request still gets a real reply (graceful drain).
func TestDrainCompletesAdmittedRequests(t *testing.T) {
	svc, pts := newTestService(t, 512, Config{MaxBatch: 64, MaxLinger: time.Hour})
	plugExecutor(t, svc) // Close releases the plug

	const inflight = 6
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = svc.Lookup(context.Background(), pts[i])
		}(i)
	}
	// Wait for all six to be admitted into the forming batch.
	deadline := time.Now().Add(2 * time.Second)
	for {
		svc.mu.Lock()
		n := 0
		for _, q := range svc.pending {
			n += len(q.reqs)
		}
		svc.mu.Unlock()
		if n == inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never all formed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("drained request %d failed: %v", i, err)
		}
	}
}
