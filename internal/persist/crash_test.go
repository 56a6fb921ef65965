package persist_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/trace"
	"pimkd/internal/workload"
)

// TestCrashRecoveryMidCommit is the process-level recovery story: a serving
// pipeline acknowledges a series of durable write batches and then dies
// mid-append of the next one (its WAL frame is half-written, exactly what a
// power cut during a commit leaves behind). persist.Open must restore every
// acknowledged update, drop the torn record, meter the replay under the
// trace label "persist/replay", and produce a tree whose query answers are
// identical to a run that never crashed.
func TestCrashRecoveryMidCommit(t *testing.T) {
	const (
		dim      = 2
		p        = 8
		initialN = 500
	)
	dir := t.TempDir()
	treeCfg := core.Config{Dim: dim, Seed: 11, LeafSize: 8}

	st, tree, _, err := persist.Open(dir, persist.Options{
		Machine: pim.NewMachine(p, 1<<20),
		Tree:    treeCfg,
		Fsync:   true,
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	initial := makeItems(workload.Uniform(initialN, dim, 13), 0)
	tree.Build(initial)
	if err := st.Checkpoint(tree); err != nil {
		t.Fatalf("initial checkpoint: %v", err)
	}

	svc := serve.New(serve.Config{
		MaxBatch:  32,
		MaxLinger: 200 * time.Microsecond,
		Persist:   st,
		// Keep the checkpoint taken above authoritative: recovery must
		// replay the WAL tail, not just reload a newer snapshot.
		CheckpointEvery:    -1,
		CheckpointInterval: -1,
	}, tree)

	// Acknowledged history: 4 insert waves of 25 and one delete wave of 15,
	// each wave fully acknowledged before the next begins.
	inserts := makeItems(workload.Uniform(100, dim, 77), 10_000)
	for wave := 0; wave < 4; wave++ {
		batch := inserts[wave*25 : (wave+1)*25]
		var wg sync.WaitGroup
		for _, it := range batch {
			wg.Add(1)
			go func(it core.Item) {
				defer wg.Done()
				if _, err := svc.Insert(context.Background(), it); err != nil {
					t.Errorf("insert %d: %v", it.ID, err)
				}
			}(it)
		}
		wg.Wait()
	}
	deletes := initial[100:115]
	{
		var wg sync.WaitGroup
		for _, it := range deletes {
			wg.Add(1)
			go func(it core.Item) {
				defer wg.Done()
				if _, err := svc.Delete(context.Background(), it); err != nil {
					t.Errorf("delete %d: %v", it.ID, err)
				}
			}(it)
		}
		wg.Wait()
	}
	ackedLSN := st.LSN()
	if ackedLSN == 0 {
		t.Fatal("no WAL records were appended")
	}

	// Crash: the process dies mid-append of the NEXT batch. The service is
	// abandoned (never Closed — its executor simply stops receiving work)
	// and the half-written frame lands directly in the active segment, the
	// exact on-disk state a kill -9 during LogBatch leaves.
	tornBatch := makeItems(workload.Uniform(10, dim, 99), 50_000)
	frame := persist.EncodeWALRecord(persist.WALRecord{
		LSN: ackedLSN + 1, Op: persist.OpInsert, Items: tornBatch,
	}, dim)
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery on a brand-new machine, with a tracer attached so replay
	// attribution is observable.
	mach2 := pim.NewMachine(p, 1<<20)
	tracer := trace.New(4096)
	mach2.SetObserver(tracer)
	st2, tree2, rec, err := persist.Open(dir, persist.Options{Machine: mach2})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer st2.Close()
	mach2.SetObserver(nil)

	// 1. Zero lost acknowledged updates; the torn record cleanly absent.
	if !rec.Recovered || !rec.TornTail {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if rec.TornBytes != int64(len(frame)/2) {
		t.Fatalf("torn bytes %d, want %d", rec.TornBytes, len(frame)/2)
	}
	if got := uint64(rec.ReplayRecords) + rec.SnapshotLSN; got != ackedLSN {
		t.Fatalf("replayed through lsn %d, want %d", got, ackedLSN)
	}
	wantIDs := idSet(initial, inserts, deletes)
	if gotIDs := sortedIDs(tree2.Items()); !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("recovered id set has %d ids, want %d", len(gotIDs), len(wantIDs))
	}
	for _, it := range tornBatch {
		for _, id := range sortedIDs(tree2.Items()) {
			if id == it.ID {
				t.Fatalf("torn (unacknowledged) item %d present after recovery", it.ID)
			}
		}
	}

	// 2. Query answers identical to a never-crashed run: same initial
	// build, same acknowledged batches, no crash, no recovery.
	oracle := core.New(treeCfg, pim.NewMachine(p, 1<<20))
	oracle.Build(initial)
	for wave := 0; wave < 4; wave++ {
		oracle.BatchInsert(inserts[wave*25 : (wave+1)*25])
	}
	oracle.BatchDelete(deletes)
	qs := workload.Uniform(200, dim, 31)
	wantKNN := oracle.KNN(qs, 8)
	gotKNN := tree2.KNN(qs, 8)
	if !reflect.DeepEqual(gotKNN, wantKNN) {
		t.Fatal("kNN answers differ between recovered and never-crashed trees")
	}
	wantRange := sortedIDs(flatten(oracle.RangeReport([]geom.Box{geom.NewBox(geom.Point{0.2, 0.2}, geom.Point{0.6, 0.6})})))
	gotRange := sortedIDs(flatten(tree2.RangeReport([]geom.Box{geom.NewBox(geom.Point{0.2, 0.2}, geom.Point{0.6, 0.6})})))
	if !reflect.DeepEqual(gotRange, wantRange) {
		t.Fatal("range answers differ between recovered and never-crashed trees")
	}

	// 3. Replay is metered and attributed: the machine-level cost appears
	// in RecoveryStats, and the tracer saw rounds labeled persist/replay
	// and persist/load.
	if rec.ReplayCost.Communication == 0 || rec.ReplayCost.Rounds == 0 {
		t.Fatalf("replay cost not metered: %+v", rec.ReplayCost)
	}
	replay := trace.SumByPrefix(tracer.Records(), "persist/replay")
	if replay.Records == 0 || replay.Comm == 0 {
		t.Fatalf("no persist/replay rounds in trace: %+v", replay)
	}
	if replay.Comm != rec.ReplayCost.Communication {
		t.Fatalf("trace attributes %d replay comm words, stats say %d",
			replay.Comm, rec.ReplayCost.Communication)
	}
	load := trace.SumByPrefix(tracer.Records(), "persist/load")
	if load.Records == 0 {
		t.Fatal("no persist/load rounds in trace")
	}

	// 4. The store reports the process recovery where /persistz serves it:
	// one recovery, the replayed records, and the replay communication.
	lr := st2.Status().LastRecovery
	if !lr.Recovered || lr.ReplayRecords != rec.ReplayRecords ||
		lr.ReplayCost.Communication != rec.ReplayCost.Communication {
		t.Fatalf("store's last-recovery status: %+v", lr)
	}

	// 5. The recovered store accepts new durable writes at the truncated
	// position.
	if lsn, err := st2.LogBatch(persist.OpInsert, tornBatch); err != nil || lsn != ackedLSN+1 {
		t.Fatalf("post-recovery append: lsn=%d err=%v", lsn, err)
	}
	tree2.BatchInsert(tornBatch)
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants after new writes: %v", err)
	}
}

func makeItems(pts []geom.Point, idBase int32) []core.Item {
	items := make([]core.Item, len(pts))
	for i, pt := range pts {
		items[i] = core.Item{P: pt, ID: idBase + int32(i)}
	}
	return items
}

func sortedIDs(items []core.Item) []int32 {
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func flatten(res [][]core.Item) []core.Item {
	var out []core.Item
	for _, r := range res {
		out = append(out, r...)
	}
	return out
}

func idSet(initial, inserts, deletes []core.Item) []int32 {
	present := map[int32]bool{}
	for _, it := range initial {
		present[it.ID] = true
	}
	for _, it := range inserts {
		present[it.ID] = true
	}
	for _, it := range deletes {
		delete(present, it.ID)
	}
	ids := make([]int32, 0, len(present))
	for id := range present {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// activeSegment returns the highest-numbered WAL segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}
