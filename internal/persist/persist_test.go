package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pimkd/internal/core"
	"pimkd/internal/pim"
	"pimkd/internal/workload"
)

func testItems(n, dim int, seed int64) []core.Item {
	pts := workload.Uniform(n, dim, seed)
	items := make([]core.Item, n)
	for i, p := range pts {
		items[i] = core.Item{P: p, ID: int32(i), Priority: p[0]}
	}
	return items
}

func buildTree(t *testing.T, n, dim, p int) (*core.Tree, *pim.Machine) {
	t.Helper()
	mach := pim.NewMachine(p, 1<<20)
	tree := core.New(core.Config{Dim: dim, Seed: 42, LeafSize: 8}, mach)
	tree.Build(testItems(n, dim, 7))
	return tree, mach
}

func sortedByID(items []core.Item) []core.Item {
	out := append([]core.Item(nil), items...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	tree, _ := buildTree(t, 500, 2, 16)
	snap := CoreSnapshot(tree, 37, 123456789)
	data := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, snap.Meta) {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, snap.Meta)
	}
	if !reflect.DeepEqual(got.Items, snap.Items) {
		t.Fatal("items mismatch after round trip")
	}

	mach2 := pim.NewMachine(16, 1<<20)
	tree2, err := got.RestoreCore(mach2)
	if err != nil {
		t.Fatalf("RestoreCore: %v", err)
	}
	if tree2.Size() != tree.Size() {
		t.Fatalf("restored size %d, want %d", tree2.Size(), tree.Size())
	}
	if !reflect.DeepEqual(sortedByID(tree2.Items()), sortedByID(tree.Items())) {
		t.Fatal("restored point multiset differs")
	}
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatalf("restored tree invariants: %v", err)
	}
	// kNN answers must match: search is exact, so they depend only on the
	// point multiset (data is random ⇒ distance-tie-free).
	qs := workload.Uniform(64, 2, 99)
	a1 := tree.KNN(qs, 4)
	a2 := tree2.KNN(qs, 4)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("kNN answers differ after snapshot restore")
	}
}

func TestSnapshotRestoreMismatchedP(t *testing.T) {
	tree, _ := buildTree(t, 100, 2, 16)
	snap := CoreSnapshot(tree, 0, 0)
	if _, err := snap.RestoreCore(pim.NewMachine(8, 1<<20)); err == nil {
		t.Fatal("RestoreCore with wrong P succeeded")
	}
}

func TestSnapshotDecodeCorruption(t *testing.T) {
	tree, _ := buildTree(t, 64, 2, 8)
	data := EncodeSnapshot(CoreSnapshot(tree, 5, 0))

	// Truncations at every prefix length: typed error, no panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncated to %d bytes decoded successfully", cut)
		}
	}
	// Single-byte flips through the file: must error (CRC) or decode to the
	// identical snapshot (flip in dead padding — there is none, so: error).
	for off := 0; off < len(data); off += 11 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at offset %d decoded successfully", off)
		}
	}
}

// TestSnapshotRejectsRetiredKind: kind 2 (a retired second tree class) is
// no longer a snapshot kind, so a well-framed file declaring it is corrupt.
func TestSnapshotRejectsRetiredKind(t *testing.T) {
	tree, _ := buildTree(t, 64, 2, 8)
	snap := CoreSnapshot(tree, 5, 0)
	snap.Meta.Kind = 2
	if _, err := DecodeSnapshot(EncodeSnapshot(snap)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind 2 snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestWALScanRoundTripAndTornTail(t *testing.T) {
	const dim = 2
	items := testItems(10, dim, 3)
	buf := encodeWALHeader(dim, 1)
	recs := []WALRecord{
		{LSN: 1, Op: OpInsert, Items: items[:4]},
		{LSN: 2, Op: OpDelete, Items: items[4:6]},
		{LSN: 3, Op: OpInsert, Items: items[6:]},
	}
	for _, r := range recs {
		buf = append(buf, EncodeWALRecord(r, dim)...)
	}

	scan, err := ScanWALSegment(buf)
	if err != nil {
		t.Fatalf("ScanWALSegment: %v", err)
	}
	if scan.Torn || len(scan.Records) != 3 || scan.ValidLen != int64(len(buf)) {
		t.Fatalf("clean scan: torn=%v records=%d validLen=%d len=%d",
			scan.Torn, len(scan.Records), scan.ValidLen, len(buf))
	}
	if !reflect.DeepEqual(scan.Records, recs) {
		t.Fatal("decoded records differ")
	}

	// A half-written 4th record must scan as a torn tail at every cut
	// point, preserving the first three records.
	extra := EncodeWALRecord(WALRecord{LSN: 4, Op: OpInsert, Items: items[:2]}, dim)
	for cut := 1; cut < len(extra); cut++ {
		torn := append(append([]byte(nil), buf...), extra[:cut]...)
		scan, err := ScanWALSegment(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !scan.Torn || len(scan.Records) != 3 || scan.ValidLen != int64(len(buf)) {
			t.Fatalf("cut %d: torn=%v records=%d validLen=%d", cut, scan.Torn, len(scan.Records), scan.ValidLen)
		}
	}

	// An LSN gap behind valid CRCs is corruption, not a torn tail.
	gap := append([]byte(nil), encodeWALHeader(dim, 1)...)
	gap = append(gap, EncodeWALRecord(recs[0], dim)...)
	gap = append(gap, EncodeWALRecord(WALRecord{LSN: 5, Op: OpInsert, Items: items[:1]}, dim)...)
	if _, err := ScanWALSegment(gap); err == nil {
		t.Fatal("LSN gap scanned successfully")
	}
}

func TestOpenFreshAppendReopen(t *testing.T) {
	dir := t.TempDir()
	const dim = 2
	opts := Options{
		Machine: pim.NewMachine(8, 1<<20),
		Tree:    core.Config{Dim: dim, Seed: 11, LeafSize: 8},
		Fsync:   true,
	}
	st, tree, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	if rec.Recovered || tree.Size() != 0 {
		t.Fatalf("fresh open: recovered=%v size=%d", rec.Recovered, tree.Size())
	}

	// Log + apply three batches, exactly as the serving layer would.
	items := testItems(300, dim, 5)
	batches := [][]core.Item{items[:100], items[100:200], items[200:]}
	for _, b := range batches {
		if _, err := st.LogBatch(OpInsert, b); err != nil {
			t.Fatalf("LogBatch: %v", err)
		}
		tree.BatchInsert(b)
	}
	del := items[50:70]
	if _, err := st.LogBatch(OpDelete, del); err != nil {
		t.Fatalf("LogBatch delete: %v", err)
	}
	tree.BatchDelete(del)
	if st.LSN() != 4 {
		t.Fatalf("LSN = %d, want 4", st.LSN())
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything replays from the WAL (no snapshot yet).
	mach2 := pim.NewMachine(8, 1<<20)
	st2, tree2, rec2, err := Open(dir, Options{Machine: mach2, Tree: opts.Tree})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if !rec2.Recovered || rec2.ReplayRecords != 4 || rec2.ReplayItems != 320 {
		t.Fatalf("recovery stats: %+v", rec2)
	}
	if tree2.Size() != 280 {
		t.Fatalf("recovered size %d, want 280", tree2.Size())
	}
	if rec2.ReplayCost.Communication == 0 || rec2.ReplayCost.Rounds == 0 {
		t.Fatalf("replay cost not metered: %+v", rec2.ReplayCost)
	}
	if !reflect.DeepEqual(sortedByID(tree2.Items()), sortedByID(tree.Items())) {
		t.Fatal("recovered point set differs")
	}
}

func TestCheckpointRotatesAndGCs(t *testing.T) {
	dir := t.TempDir()
	const dim = 2
	opts := Options{Machine: pim.NewMachine(8, 1<<20), Tree: core.Config{Dim: dim, Seed: 11}}
	st, tree, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(400, dim, 5)
	if _, err := st.LogBatch(OpInsert, items[:200]); err != nil {
		t.Fatal(err)
	}
	tree.BatchInsert(items[:200])
	if err := st.Checkpoint(tree); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	status := st.Status()
	if status.SnapshotLSN != 1 || status.CheckpointsWritten != 1 {
		t.Fatalf("status after checkpoint: %+v", status)
	}
	if status.WALSegments != 1 {
		t.Fatalf("WAL segments after GC = %d, want 1 (fresh segment only)", status.WALSegments)
	}

	// Records past the checkpoint land in the new segment and replay on
	// top of the snapshot.
	if _, err := st.LogBatch(OpInsert, items[200:]); err != nil {
		t.Fatal(err)
	}
	tree.BatchInsert(items[200:])
	st.Close()

	st2, tree2, rec, err := Open(dir, Options{Machine: pim.NewMachine(8, 1<<20)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rec.SnapshotLSN != 1 || rec.SnapshotItems != 200 || rec.ReplayRecords != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if tree2.Size() != 400 {
		t.Fatalf("size %d, want 400", tree2.Size())
	}
	// Back-to-back checkpoint with no new records: no rotation needed.
	if err := st2.Checkpoint(tree2); err != nil {
		t.Fatalf("idle checkpoint: %v", err)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	const dim = 2
	opts := Options{Machine: pim.NewMachine(8, 1<<20), Tree: core.Config{Dim: dim, Seed: 11}}
	st, tree, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(120, dim, 5)
	if _, err := st.LogBatch(OpInsert, items[:100]); err != nil {
		t.Fatal(err)
	}
	tree.BatchInsert(items[:100])
	st.Close()

	// Simulate a crash mid-append: half of an unacknowledged record.
	segs, err := listSeqFiles(dir, walPrefix, walSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	frame := EncodeWALRecord(WALRecord{LSN: 2, Op: OpInsert, Items: items[100:]}, dim)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize := fileSize(t, segs[0].path)

	st2, tree2, rec, err := Open(dir, Options{Machine: pim.NewMachine(8, 1<<20), Tree: opts.Tree})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if !rec.TornTail || rec.TornBytes != int64(len(frame)/2) {
		t.Fatalf("torn stats: %+v", rec)
	}
	if tree2.Size() != 100 || rec.ReplayRecords != 1 {
		t.Fatalf("recovered size=%d replay=%d", tree2.Size(), rec.ReplayRecords)
	}
	if got := fileSize(t, segs[0].path); got != tornSize-int64(len(frame)/2) {
		t.Fatalf("segment not truncated: %d bytes", got)
	}

	// The log stays appendable exactly where the torn record was.
	if lsn, err := st2.LogBatch(OpInsert, items[100:]); err != nil || lsn != 2 {
		t.Fatalf("append after truncation: lsn=%d err=%v", lsn, err)
	}
	tree2.BatchInsert(items[100:])
	st2.Close()

	_, tree3, rec3, err := Open(dir, Options{Machine: pim.NewMachine(8, 1<<20), Tree: opts.Tree})
	if err != nil {
		t.Fatal(err)
	}
	if tree3.Size() != 120 || rec3.ReplayRecords != 2 {
		t.Fatalf("final recovery: size=%d replay=%d", tree3.Size(), rec3.ReplayRecords)
	}
}

func TestOpenSkipsCorruptNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	const dim = 2
	opts := Options{Machine: pim.NewMachine(8, 1<<20), Tree: core.Config{Dim: dim, Seed: 11}}
	st, tree, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	items := testItems(100, dim, 5)
	if _, err := st.LogBatch(OpInsert, items); err != nil {
		t.Fatal(err)
	}
	tree.BatchInsert(items)
	if err := st.Checkpoint(tree); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Plant a newer, torn snapshot (no DONE section): recovery must skip
	// it and use the valid one.
	bogus := snapPath(dir, 99)
	good, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bogus, good[:len(good)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	_, tree2, rec, err := Open(dir, Options{Machine: pim.NewMachine(8, 1<<20)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec.SkippedSnapshots != 1 || rec.SnapshotLSN != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if tree2.Size() != 100 {
		t.Fatalf("size %d, want 100", tree2.Size())
	}
	if !strings.HasSuffix(rec.SnapshotPath, filepath.Base(snapPath(dir, 1))) {
		t.Fatalf("recovered from %s", rec.SnapshotPath)
	}
}

func TestSnapshotWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	tree, _ := buildTree(t, 200, 2, 8)
	path := filepath.Join(dir, "snap-test.pimkd")
	if _, err := WriteSnapshotFile(path, CoreSnapshot(tree, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if _, err := ReadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFileBytesMatchEncode(t *testing.T) {
	// WriteSnapshotFile streams the encoding EncodeSnapshot returns whole;
	// the two must produce the same bytes for every shape of point set.
	tree, _ := buildTree(t, 700, 3, 8)
	meta := SnapshotMeta{Kind: KindCore, Dim: 2, LeafSize: 8, Seed: 5, P: 8, CacheM: 1 << 20, AppliedLSN: 9, CreatedUnixNano: 77}
	cases := []struct {
		name string
		snap Snapshot
	}{
		{"empty", Snapshot{Meta: meta}},
		{"one", Snapshot{Meta: meta, Items: testItems(1, 2, 3)}},
		{"thousand", Snapshot{Meta: meta, Items: testItems(1000, 2, 4)}},
		{"core", CoreSnapshot(tree, 41, 1234)},
	}
	dir := t.TempDir()
	for _, c := range cases {
		want := EncodeSnapshot(c.snap)
		if len(want) != snapshotSize(c.snap.Meta.Dim, len(c.snap.Items)) {
			t.Fatalf("%s: encoded %d bytes, want %d", c.name, len(want), snapshotSize(c.snap.Meta.Dim, len(c.snap.Items)))
		}
		path := filepath.Join(dir, c.name+".pimkd")
		n, err := WriteSnapshotFile(path, c.snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(got)) || !bytes.Equal(got, want) {
			t.Fatalf("%s: file holds %d bytes (reported %d) that differ from the %d encoded", c.name, len(got), n, len(want))
		}
		dec, err := DecodeSnapshot(got)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(dec.Items) != len(c.snap.Items) || (len(dec.Items) > 0 && !reflect.DeepEqual(dec.Items, c.snap.Items)) {
			t.Fatalf("%s: items differ after a file round trip", c.name)
		}
	}
}

func TestCheckpointAllocsItemCopy(t *testing.T) {
	// A checkpoint copies the tree's items once; the encoding streams to
	// the file, so everything else it allocates is small beside that copy.
	const n = 1 << 16
	tree, _ := buildTree(t, n, 2, 8)
	st, _, _, err := Open(t.TempDir(), Options{Machine: pim.NewMachine(8, 1<<20), Tree: core.Config{Dim: 2, Seed: 42, LeafSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Checkpoint(tree); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.Checkpoint(tree); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	itemCopy := float64(n * unsafe.Sizeof(core.Item{}))
	t.Logf("a %d-item checkpoint allocates %.0f B; its item copy is %.0f B", n, alloc, itemCopy)
	if alloc > 1.2*itemCopy {
		t.Fatalf("a %d-item checkpoint allocates %.0f B, more than 1.2× its %.0f B item copy", n, alloc, itemCopy)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
