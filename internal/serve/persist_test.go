package serve

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

// newDurableService opens a persist store in dir, builds the initial tree
// through it, and wraps it in a durable-write Service.
func newDurableService(t testing.TB, dir string, n int, cfg Config) (*Service, *persist.Store, *core.Tree) {
	t.Helper()
	const dim, p = 2, 8
	st, tree, _, err := persist.Open(dir, persist.Options{
		Machine: pim.NewMachine(p, 1<<20),
		Tree:    core.Config{Dim: dim, Seed: 11},
		Fsync:   false, // tests exercise ordering, not power-fail fsync
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	if n > 0 {
		pts := workload.Uniform(n, dim, 13)
		items := make([]core.Item, n)
		for i, pt := range pts {
			items[i] = core.Item{P: pt, ID: int32(i)}
		}
		tree.Build(items)
		// Make the bulk load durable: initial builds bypass the WAL, so
		// they are only recoverable once checkpointed.
		if err := st.Checkpoint(tree); err != nil {
			t.Fatalf("initial checkpoint: %v", err)
		}
	}
	cfg.Persist = st
	return New(cfg, tree), st, tree
}

func idsOf(items []core.Item) []int32 {
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestDurableWritesSurviveReopen drives acknowledged inserts and deletes
// through the service, closes everything cleanly, and proves a fresh Open
// reproduces the exact point set.
func TestDurableWritesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	svc, st, tree := newDurableService(t, dir, 200, Config{MaxBatch: 16, MaxLinger: 200 * time.Microsecond})

	extra := workload.Uniform(64, 2, 77)
	var wg sync.WaitGroup
	for i, pt := range extra {
		wg.Add(1)
		go func(i int, pt []float64) {
			defer wg.Done()
			if _, err := svc.Insert(context.Background(), core.Item{P: pt, ID: int32(1000 + i)}); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i, pt)
	}
	wg.Wait()
	for i := 0; i < 20; i++ {
		pts := workload.Uniform(200, 2, 13)
		if _, err := svc.Delete(context.Background(), core.Item{P: pts[i], ID: int32(i)}); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	want := idsOf(tree.Items())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, tree2, rec, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(8, 1<<20)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !rec.Recovered {
		t.Fatal("nothing recovered")
	}
	if got := idsOf(tree2.Items()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d ids, want %d (sets differ)", len(got), len(want))
	}
	if tree2.Size() != 200+64-20 {
		t.Fatalf("recovered size %d, want 244", tree2.Size())
	}
}

// TestCloseFlushesInFlightCheckpoint is the drain regression test: Close
// must not return while a background checkpoint write is still running. A
// deliberately slow OnCheckpoint hook makes the in-flight window wide; after
// Close, every started checkpoint must have finished and no temp files may
// remain.
func TestCloseFlushesInFlightCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var finished atomic.Int64
	st, tree, _, err := persist.Open(dir, persist.Options{
		Machine: pim.NewMachine(8, 1<<20),
		Tree:    core.Config{Dim: 2, Seed: 11},
		OnCheckpoint: func(ci persist.CheckpointInfo) {
			time.Sleep(20 * time.Millisecond) // widen the in-flight window
			finished.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{
		MaxBatch:        4,
		MaxLinger:       100 * time.Microsecond,
		Persist:         st,
		CheckpointEvery: 1, // checkpoint after every write batch
	}, tree)

	pts := workload.Uniform(40, 2, 5)
	var wg sync.WaitGroup
	for i, pt := range pts {
		wg.Add(1)
		go func(i int, pt []float64) {
			defer wg.Done()
			if _, err := svc.Insert(context.Background(), core.Item{P: pt, ID: int32(i)}); err != nil {
				t.Errorf("insert: %v", err)
			}
		}(i, pt)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	status := st.Status()
	if status.CheckpointsStarted == 0 {
		t.Fatal("no checkpoint ever started — trigger misconfigured")
	}
	if status.CheckpointsStarted != status.CheckpointsWritten {
		t.Fatalf("Close returned with checkpoint in flight: started=%d written=%d",
			status.CheckpointsStarted, status.CheckpointsWritten)
	}
	if int64(status.CheckpointsWritten) != finished.Load() {
		t.Fatalf("hook saw %d checkpoints, status says %d", finished.Load(), status.CheckpointsWritten)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s survived Close", e.Name())
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acknowledged must be recoverable.
	_, tree2, _, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(8, 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Size() != 40 {
		t.Fatalf("recovered %d items, want 40", tree2.Size())
	}
}

// TestPersistzEndpoint exercises the HTTP status surface.
func TestPersistzEndpoint(t *testing.T) {
	dir := t.TempDir()
	svc, st, _ := newDurableService(t, dir, 50, Config{MaxBatch: 4, MaxLinger: 100 * time.Microsecond})
	defer func() { svc.Close(); st.Close() }()

	if _, err := svc.Insert(context.Background(), core.Item{P: workload.Uniform(1, 2, 3)[0], ID: 9999}); err != nil {
		t.Fatal(err)
	}
	status, ok := svc.PersistStatus()
	if !ok {
		t.Fatal("PersistStatus reported disabled")
	}
	if status.LSN == 0 || status.SnapshotLSN != 0 {
		t.Fatalf("status: %+v", status)
	}
	if status.Appends == 0 {
		t.Fatal("no WAL appends counted")
	}
}

// TestPersistDisabledStatus covers the non-durable path of PersistStatus.
func TestPersistDisabledStatus(t *testing.T) {
	svc, _ := newTestService(t, 32, Config{MaxBatch: 4})
	defer svc.Close()
	if _, ok := svc.PersistStatus(); ok {
		t.Fatal("PersistStatus reported enabled without Config.Persist")
	}
}

// TestTornRestoreRecoversOneSide crashes a durable RestoreCell mid-append:
// the restore's diff has a delete half and an insert half, and cutting the
// last bytes off the WAL segment tears the tail of what it logged. Recovery
// must land the cell on the pre-restore state or on the restored state,
// never on a mix of the two halves; an uncut log recovers the restore.
func TestTornRestoreRecoversOneSide(t *testing.T) {
	for _, cut := range []int64{0, 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			svc, st, _ := newDurableService(t, dir, 200, durableTraceConfig)
			ctx := context.Background()
			before, _, err := svc.SnapshotCell(ctx, 0, traceCell)
			if err != nil || len(before.Items) < 2 {
				t.Fatalf("snapshot: %d items, %v", len(before.Items), err)
			}
			restored := CellSnapshot{
				Items:     append(append([]core.Item(nil), before.Items[1:]...), core.Item{ID: 7001, P: geom.Point{0.45, 0.05}}),
				Deadlines: append(append([]int64(nil), before.Deadlines[1:]...), math.MinInt64),
			}
			if changed, _, err := svc.RestoreCell(ctx, 0, traceCell, restored); err != nil || !changed {
				t.Fatalf("restore: changed=%v, %v", changed, err)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no WAL segment: %v", err)
			}
			sort.Strings(segs)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			_, tree, rec, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(8, 1<<20)})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			var got []core.Item
			for _, it := range tree.Items() {
				if traceCell.ContainsHalfOpen(it.P) {
					got = append(got, it)
				}
			}
			core.SortItems(got)
			pre := append([]core.Item(nil), before.Items...)
			post := append([]core.Item(nil), restored.Items...)
			core.SortItems(pre)
			core.SortItems(post)
			switch {
			case cut == 0 && !reflect.DeepEqual(got, post):
				t.Fatalf("uncut log recovered %d cell items, want the %d restored ones", len(got), len(post))
			case cut > 0 && !rec.TornTail:
				t.Fatal("cut log recovered without a torn tail")
			case !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post):
				t.Fatalf("recovered cell (%d items) is neither the pre-restore (%d) nor the restored (%d) state",
					len(got), len(pre), len(post))
			}
		})
	}
}
