package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/shard"
)

// durableTraceConfig runs one request per batch with both checkpoint
// triggers off, so every write kind lands in the WAL as its own records in
// call order and the log is never rotated.
var durableTraceConfig = Config{MaxBatch: 1, MaxLinger: time.Millisecond, CheckpointEvery: -1, CheckpointInterval: -1}

// traceCell is the half-open cell every durable-trace write touches.
var traceCell = geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5})

// TestDurableWALPerWriteKind pins the write-ahead log a fixed sequence of
// every write kind produces — insert, unique insert (new, then a duplicate
// that logs nothing), delete, ingest, unique ingest, an expire sweep with a
// due entry, a cell restore and a one-op cell migration — byte for byte,
// together with the touched cell's checksum. A change to which write logs
// what, in which order, or to what the cell ends up holding fails here.
func TestDurableWALPerWriteKind(t *testing.T) {
	dir := t.TempDir()
	svc, st, _ := newDurableService(t, dir, 200, durableTraceConfig)
	ctx := context.Background()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	_, err := svc.Insert(ctx, core.Item{ID: 5001, P: geom.Point{0.1, 0.1}})
	must("insert", err)
	_, err = svc.InsertUnique(ctx, core.Item{ID: 5002, P: geom.Point{0.2, 0.1}})
	must("unique insert", err)
	_, err = svc.InsertUnique(ctx, core.Item{ID: 5002, P: geom.Point{0.2, 0.1}})
	must("duplicate unique insert", err)
	_, err = svc.Delete(ctx, core.Item{ID: 5001, P: geom.Point{0.1, 0.1}})
	must("delete", err)
	_, err = svc.Ingest(ctx, core.Item{ID: 5003, P: geom.Point{0.3, 0.1}}, 10)
	must("ingest", err)
	_, err = svc.IngestUnique(ctx, core.Item{ID: 5004, P: geom.Point{0.1, 0.3}}, 20)
	must("unique ingest", err)
	n, _, err := svc.Expire(ctx, 15)
	must("expire", err)
	if n != 1 {
		t.Fatalf("expire swept %d entries, want 1", n)
	}

	snap, _, err := svc.SnapshotCell(ctx, 0, traceCell)
	must("snapshot", err)
	restored := CellSnapshot{
		Items:     append(append([]core.Item(nil), snap.Items[1:]...), core.Item{ID: 5005, P: geom.Point{0.45, 0.05}}),
		Deadlines: append(append([]int64(nil), snap.Deadlines[1:]...), math.MinInt64),
		Orphans:   snap.Orphans,
		OrphanAts: snap.OrphanAts,
	}
	changed, _, err := svc.RestoreCell(ctx, 0, traceCell, restored)
	must("restore", err)
	if !changed {
		t.Fatal("restore reported no change")
	}
	snap, _, err = svc.SnapshotCell(ctx, 0, traceCell)
	must("snapshot", err)
	ops := []shard.MigrateOp{{Item: core.Item{ID: 5006, P: geom.Point{0.05, 0.45}}, ExpireAt: math.MinInt64}}
	changed, _, err = svc.MigrateCell(ctx, 0, traceCell, snap, ops)
	must("migrate", err)
	if !changed {
		t.Fatal("migrate reported no change")
	}

	sum, _, err := svc.ChecksumCell(ctx, 0, traceCell)
	must("checksum", err)
	must("close service", svc.Close())
	must("close store", st.Close())

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	must("glob", err)
	if len(segs) != 1 {
		t.Fatalf("found %d WAL segments, want 1: %v", len(segs), segs)
	}
	data, err := os.ReadFile(segs[0])
	must("read WAL", err)
	digest := sha256.Sum256(data)

	const (
		wantWALBytes  = 457
		wantWALSHA256 = "28185cef86a67712f1de19843a42d80f18793287ad463c66f91628fa0eba49b7"
		wantCount     = 68
		wantDigest    = 0x654b2c8c26fc84c7
	)
	if len(data) != wantWALBytes || hex.EncodeToString(digest[:]) != wantWALSHA256 {
		t.Errorf("WAL segment: %d bytes, sha256 %x; want %d bytes, sha256 %s",
			len(data), digest, wantWALBytes, wantWALSHA256)
	}
	if sum.Count != wantCount || sum.Digest != wantDigest {
		t.Errorf("cell checksum (%d, %#x), want (%d, %#x)", sum.Count, sum.Digest, uint64(wantCount), uint64(wantDigest))
	}
}

// TestWALFailureRefusesEveryWriteKind closes the durable store under a
// running service and sends every write kind. Each must be refused with
// ErrPersist before touching the tree or the expiry tracker, be counted as
// one persist failure, and still be recorded as an executed batch; reads
// keep answering throughout.
func TestWALFailureRefusesEveryWriteKind(t *testing.T) {
	dir := t.TempDir()
	svc, st, _ := newDurableService(t, dir, 200, durableTraceConfig)
	defer svc.Close()
	ctx := context.Background()
	// One tracked entry that is due at the refused sweep below.
	if _, err := svc.Ingest(ctx, core.Item{ID: 6000, P: geom.Point{0.2, 0.2}}, 5); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	before, _, err := svc.SnapshotCell(ctx, 0, traceCell)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	size := svc.TreeSize()
	m0 := svc.Metrics()
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	fresh := core.Item{ID: 6001, P: geom.Point{0.3, 0.3}}
	grown := CellSnapshot{
		Items:     append(append([]core.Item(nil), before.Items...), fresh),
		Deadlines: append(append([]int64(nil), before.Deadlines...), math.MinInt64),
		Orphans:   before.Orphans,
		OrphanAts: before.OrphanAts,
	}
	writes := []struct {
		kind string
		call func() error
	}{
		{"insert", func() error { _, err := svc.Insert(ctx, fresh); return err }},
		{"unique insert", func() error { _, err := svc.InsertUnique(ctx, fresh); return err }},
		{"delete", func() error { _, err := svc.Delete(ctx, before.Items[0]); return err }},
		{"ingest", func() error { _, err := svc.Ingest(ctx, fresh, 7); return err }},
		{"unique ingest", func() error { _, err := svc.IngestUnique(ctx, fresh, 7); return err }},
		{"expire", func() error { _, _, err := svc.Expire(ctx, 10); return err }},
		{"restore", func() error { _, _, err := svc.RestoreCell(ctx, 0, traceCell, grown); return err }},
		{"migrate", func() error {
			_, _, err := svc.MigrateCell(ctx, 0, traceCell, before, []shard.MigrateOp{{Item: fresh, ExpireAt: math.MinInt64}})
			return err
		}},
	}
	for _, w := range writes {
		if err := w.call(); !errors.Is(err, ErrPersist) {
			t.Errorf("%s with a closed log: err = %v, want ErrPersist", w.kind, err)
		}
	}

	after, _, err := svc.SnapshotCell(ctx, 0, traceCell)
	if err != nil {
		t.Fatalf("snapshot after refusals: %v", err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("refused writes changed the cell:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := svc.TreeSize(); got != size {
		t.Errorf("tree size %d after refused writes, want %d", got, size)
	}
	if _, _, err := svc.KNN(ctx, geom.Point{0.2, 0.2}, 3); err != nil {
		t.Errorf("kNN after refused writes: %v", err)
	}
	m1 := svc.Metrics()
	if got := m1.Robustness.PersistFailures - m0.Robustness.PersistFailures; got != int64(len(writes)) {
		t.Errorf("persist failures rose by %d, want %d", got, len(writes))
	}
	// Every refusal is an executed batch; the snapshot read and the kNN
	// after them are two more.
	if got := m1.TotalBatches - m0.TotalBatches; got != int64(len(writes))+2 {
		t.Errorf("total batches rose by %d, want %d", got, len(writes)+2)
	}
}

// TestFilterUniqueInBatchDuplicates runs a set-semantics insert batch with
// in-batch duplicates through filterUnique: the same item twice, an ID
// reused with another point, a point reused with another ID, an item equal
// in ID and point but not priority, and an already stored item. Exactly
// the first occurrence of each new item survives, in batch order. A
// randomized batch drawn from a few IDs and points must match the
// all-pairs filter the index replaced.
func TestFilterUniqueInBatchDuplicates(t *testing.T) {
	svc, pts := newTestService(t, 100, Config{})
	defer svc.Close()
	a := core.Item{ID: 900, P: geom.Point{0.1, 0.2}}
	samePointNewID := core.Item{ID: 901, P: geom.Point{0.1, 0.2}}
	sameIDNewPoint := core.Item{ID: 900, P: geom.Point{0.3, 0.4}}
	newPriority := core.Item{ID: 900, P: geom.Point{0.1, 0.2}, Priority: 1}
	stored := core.Item{ID: 7, P: pts[7]}
	batch := []core.Item{a, a, sameIDNewPoint, samePointNewID, stored, sameIDNewPoint, a, newPriority, samePointNewID}
	want := []core.Item{a, sameIDNewPoint, samePointNewID, newPriority}
	if got := svc.filterUnique(batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("filterUnique = %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(3))
	batch = batch[:0]
	for i := 0; i < 500; i++ {
		id := int32(rng.Intn(6))
		p := geom.Point{float64(rng.Intn(4)) / 4, 0.5}
		if rng.Intn(10) == 0 {
			p = pts[id] // the stored item with this ID
		}
		batch = append(batch, core.Item{ID: id, P: p})
	}
	present := svc.tree.Contains(batch)
	var ref []core.Item
	for i, it := range batch {
		dup := present[i]
		for _, r := range ref {
			dup = dup || core.ItemEq(r, it)
		}
		if !dup {
			ref = append(ref, it)
		}
	}
	if got := svc.filterUnique(batch); !reflect.DeepEqual(got, ref) {
		t.Fatalf("filterUnique = %v, want the all-pairs filter's %v", got, ref)
	}
}
