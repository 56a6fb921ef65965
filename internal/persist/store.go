package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/pim"
)

// File layout of a data directory:
//
//	snap-<appliedLSN as %016x>.pimkd    full-state snapshots (newest wins)
//	wal-<startLSN as %016x>.log         WAL segments, rotated at checkpoints
//
// The active segment is the one with the highest start LSN. Checkpoints
// rotate to a fresh segment first, write the snapshot via temp + rename,
// then garbage-collect segments and snapshots the new snapshot supersedes —
// so at every instant the directory contains a valid recovery line.
const (
	snapPrefix = "snap-"
	snapSuffix = ".pimkd"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	// keepSnapshots is how many newest snapshots survive checkpoint GC: the
	// current one plus one predecessor as insurance against latent media
	// corruption of the newest file.
	keepSnapshots = 2
)

func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix))
}

func walPath(dir string, startLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, startLSN, walSuffix))
}

// seqFile is a directory entry carrying a hex sequence number in its name.
type seqFile struct {
	path string
	seq  uint64
}

// listSeqFiles returns the prefix/suffix-matching files in dir, ascending
// by embedded sequence number. Files whose middle is not valid hex are
// ignored (editor droppings, temp files).
func listSeqFiles(dir, prefix, suffix string) ([]seqFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(suffix)]
		seq, err := strconv.ParseUint(mid, 16, 64)
		if err != nil {
			continue
		}
		out = append(out, seqFile{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// Options configures Open.
type Options struct {
	// Machine is the PIM machine recovery rebuilds onto (required). Its P
	// must match the snapshot being restored.
	Machine *pim.Machine
	// Tree is the configuration used when the directory holds no snapshot
	// (fresh start). Ignored when a snapshot exists — the snapshot's own
	// recorded configuration wins, so a restart cannot silently change the
	// structure seed under a persisted point set.
	Tree core.Config
	// Fsync syncs the WAL on every LogBatch append (and snapshot writes are
	// always synced). Without it, durability of the WAL tail is left to the
	// OS page cache — crash-consistent but not power-fail-safe.
	Fsync bool
	// OnCheckpoint, when set, observes every finished checkpoint attempt.
	OnCheckpoint func(CheckpointInfo)
}

// RecoveryStats describes what Open found and what recovery cost. The
// metered costs come from the machine's own meters — replay runs through the
// normal batch path under the trace label "persist/replay" and snapshot
// loading under "persist/load", so the same numbers appear in pim.Stats
// deltas and round traces.
type RecoveryStats struct {
	// Recovered is true when any prior state (snapshot or WAL records) was
	// restored; false for a fresh directory.
	Recovered bool
	// Snapshot provenance: which file seeded the tree, its applied LSN,
	// item count and size. SnapshotPath is empty when recovery started from
	// an empty tree (WAL-only directory).
	SnapshotPath  string
	SnapshotLSN   uint64
	SnapshotItems int
	SnapshotBytes int64
	// SkippedSnapshots counts newer snapshot files that failed validation
	// and were passed over for an older valid one.
	SkippedSnapshots int
	// Replay volume: segments scanned, records applied past the snapshot,
	// and total items inside those records.
	ReplaySegments int
	ReplayRecords  int
	ReplayItems    int
	// TornTail reports a torn final append (a batch that crashed before
	// acknowledgement); TornBytes were truncated from the last segment.
	TornTail  bool
	TornBytes int64
	// Metered recovery cost, straight from the PIM machine.
	LoadCost   pim.Stats
	ReplayCost pim.Stats
	// Wall-clock durations of the two phases.
	LoadWall   time.Duration
	ReplayWall time.Duration
}

// CheckpointInfo describes one finished checkpoint attempt.
type CheckpointInfo struct {
	LSN             uint64
	Items           int
	Bytes           int64
	Wall            time.Duration
	SegmentsRemoved int
	Err             error
}

// Status is a point-in-time view of the store, served by /persistz.
type Status struct {
	Dir string
	LSN uint64
	Dim int
	// Snapshot currency.
	SnapshotLSN      uint64
	SnapshotUnixNano int64
	SnapshotBytes    int64
	// WAL accumulation since that snapshot.
	WALSegments int
	WALBytes    int64
	// Append/sync counters.
	Appends uint64
	Syncs   uint64
	Fsync   bool
	// Checkpoint progress: Started == Written means no checkpoint is in
	// flight and none has failed.
	CheckpointsStarted uint64
	CheckpointsWritten uint64
	LastCheckpointErr  string
	// LastRecovery is what the opening recovery found.
	LastRecovery RecoveryStats
}

// Store is an open data directory: an append position in the write-ahead
// log plus checkpoint state. LogBatch/Sync/Status/Close are safe for
// concurrent use; BeginCheckpoint must be called by the goroutine that owns
// the tree (the serve executor), and the returned Checkpoint's Write may
// then run anywhere.
type Store struct {
	dir   string
	dim   int
	fsync bool

	mu     sync.Mutex
	closed bool
	// failed poisons the store after a WAL append error: the segment tail
	// may be torn, and appending past a torn frame would make recovery drop
	// everything after it — so every subsequent LogBatch refuses.
	failed error
	lsn    uint64 // last assigned LSN
	seg    *walSegment
	// frozen segments (rotated away, not yet GC'd) counted for Status.
	frozenSegs  int
	frozenBytes int64

	snapLSN      uint64
	snapUnixNano int64
	snapBytes    int64

	appends, syncs     uint64
	ckptStarted        uint64
	ckptWritten        uint64
	lastCkptErr        string
	recovery           RecoveryStats
	onCheckpoint       func(CheckpointInfo)
	checkpointInFlight bool
}

// Open loads (or initializes) the data directory and returns the store
// together with the recovered tree. Recovery: pick the newest snapshot that
// validates (skipping corrupt ones), rebuild the tree from it under the
// machine label "persist/load", replay every WAL record past the snapshot's
// applied LSN through the normal batch path under "persist/replay", and
// truncate a torn final append so the log is clean for new writes.
func Open(dir string, opts Options) (*Store, *core.Tree, RecoveryStats, error) {
	var rec RecoveryStats
	if opts.Machine == nil {
		return nil, nil, rec, fmt.Errorf("persist: Open requires Options.Machine")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, rec, err
	}

	// Phase 1: newest valid snapshot.
	snaps, err := listSeqFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, rec, err
	}
	var (
		tree     *core.Tree
		snapshot *Snapshot
	)
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := ReadSnapshotFile(snaps[i].path)
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		if s.Meta.Kind != KindCore {
			rec.SkippedSnapshots++
			continue
		}
		fi, _ := os.Stat(snaps[i].path)
		rec.SnapshotPath = snaps[i].path
		rec.SnapshotLSN = s.Meta.AppliedLSN
		rec.SnapshotItems = len(s.Items)
		if fi != nil {
			rec.SnapshotBytes = fi.Size()
		}
		snapshot = &s
		break
	}

	loadStart := time.Now()
	before := opts.Machine.Stats()
	if snapshot != nil {
		tree, err = snapshot.RestoreCore(opts.Machine)
		if err != nil {
			return nil, nil, rec, err
		}
		rec.Recovered = true
	} else {
		if opts.Tree.Dim < 1 {
			return nil, nil, rec, fmt.Errorf("persist: fresh directory %s needs Options.Tree.Dim", dir)
		}
		tree = core.New(opts.Tree, opts.Machine)
	}
	rec.LoadCost = opts.Machine.Stats().Sub(before)
	rec.LoadWall = time.Since(loadStart)

	st := &Store{
		dir:          dir,
		dim:          tree.Dim(),
		fsync:        opts.Fsync,
		lsn:          rec.SnapshotLSN,
		snapLSN:      rec.SnapshotLSN,
		snapBytes:    rec.SnapshotBytes,
		onCheckpoint: opts.OnCheckpoint,
	}
	if snapshot != nil {
		st.snapUnixNano = snapshot.Meta.CreatedUnixNano
	}

	// Phase 2: WAL replay. Segments are strictly ordered by start LSN;
	// records at or below the snapshot's applied LSN are skipped, the rest
	// replay in order. A torn frame is legal only at the tail of the last
	// segment.
	segs, err := listSeqFiles(dir, walPrefix, walSuffix)
	if err != nil {
		return nil, nil, rec, err
	}
	replayStart := time.Now()
	before = opts.Machine.Stats()
	popReplay := opts.Machine.PushLabel("persist/replay")
	var lastScan *WALScan
	var lastSeg seqFile
	for i, sf := range segs {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			popReplay()
			return nil, nil, rec, err
		}
		scan, err := ScanWALSegment(data)
		if err != nil {
			popReplay()
			return nil, nil, rec, fmt.Errorf("%s: %w", sf.path, err)
		}
		if scan.Dim != st.dim {
			popReplay()
			return nil, nil, rec, fmt.Errorf("%w: WAL %s has dim=%d, tree has dim=%d",
				ErrMismatch, sf.path, scan.Dim, st.dim)
		}
		if scan.StartLSN != sf.seq {
			popReplay()
			return nil, nil, rec, fmt.Errorf("%w: WAL %s declares start LSN %d", ErrCorrupt, sf.path, scan.StartLSN)
		}
		if scan.Torn && i != len(segs)-1 {
			popReplay()
			return nil, nil, rec, fmt.Errorf("%w: WAL %s torn mid-line (not the last segment)", ErrCorrupt, sf.path)
		}
		rec.ReplaySegments++
		for _, r := range scan.Records {
			if r.LSN <= rec.SnapshotLSN {
				continue // already folded into the snapshot
			}
			if r.LSN != st.lsn+1 {
				popReplay()
				return nil, nil, rec, fmt.Errorf("%w: WAL record lsn=%d, want %d (gap across segments)",
					ErrCorrupt, r.LSN, st.lsn+1)
			}
			switch r.Op {
			case OpInsert:
				tree.BatchInsert(r.Items)
			case OpDelete:
				tree.BatchDelete(r.Items)
			}
			st.lsn = r.LSN
			rec.ReplayRecords++
			rec.ReplayItems += len(r.Items)
			rec.Recovered = true
		}
		if i == len(segs)-1 {
			s := scan
			lastScan, lastSeg = &s, sf
		}
	}
	popReplay()
	rec.ReplayCost = opts.Machine.Stats().Sub(before)
	rec.ReplayWall = time.Since(replayStart)

	// Phase 3: open the tail for appending, truncating a torn final frame
	// (a batch that died before acknowledgement).
	if lastScan != nil {
		if lastScan.Torn {
			fi, err := os.Stat(lastSeg.path)
			if err != nil {
				return nil, nil, rec, err
			}
			rec.TornTail = true
			rec.TornBytes = fi.Size() - lastScan.ValidLen
		}
		seg, err := openWALSegmentForAppend(lastSeg.path, lastSeg.seq, lastScan.ValidLen)
		if err != nil {
			return nil, nil, rec, err
		}
		st.seg = seg
	} else {
		seg, err := createWALSegment(walPath(dir, st.lsn+1), st.dim, st.lsn+1, opts.Fsync)
		if err != nil {
			return nil, nil, rec, err
		}
		st.seg = seg
	}
	st.frozenSegs, st.frozenBytes = st.scanFrozen()
	st.recovery = rec
	return st, tree, rec, nil
}

// scanFrozen tallies non-active segments for Status (best effort).
func (st *Store) scanFrozen() (n int, bytes int64) {
	segs, err := listSeqFiles(st.dir, walPrefix, walSuffix)
	if err != nil {
		return 0, 0
	}
	for _, sf := range segs {
		if st.seg != nil && sf.path == st.seg.path {
			continue
		}
		n++
		if fi, err := os.Stat(sf.path); err == nil {
			bytes += fi.Size()
		}
	}
	return n, bytes
}

// LogBatch appends one acknowledged update batch to the write-ahead log and
// returns its LSN.
func (st *Store) LogBatch(op Op, items []core.Item) (uint64, error) {
	return st.LogBatches(WALRecord{Op: op, Items: items})
}

// LogBatches appends batches that commit together to the write-ahead log
// as one frame — one write, one fsync, so a crash drops all of them or
// none — numbering recs in place with consecutive LSNs, and returns the
// last. The serving layer calls this *before* committing the batches to
// the machine, so an acknowledgement always implies durability (with Fsync)
// or at least crash-ordering (without). Safe for concurrent use.
func (st *Store) LogBatches(recs ...WALRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("persist: LogBatches with no records")
	}
	for _, r := range recs {
		if r.Op != OpInsert && r.Op != OpDelete {
			return 0, fmt.Errorf("persist: LogBatch with invalid op %d", r.Op)
		}
		for _, it := range r.Items {
			if len(it.P) != st.dim {
				return 0, fmt.Errorf("%w: item dim %d, store dim %d", ErrMismatch, len(it.P), st.dim)
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	if st.failed != nil {
		return 0, fmt.Errorf("persist: log poisoned by earlier append error: %w", st.failed)
	}
	for i := range recs {
		recs[i].LSN = st.lsn + 1 + uint64(i)
	}
	if err := st.seg.append(encodeWALFrame(st.dim, recs...), st.fsync); err != nil {
		st.failed = err
		return 0, err
	}
	st.lsn += uint64(len(recs))
	st.appends++
	if st.fsync {
		st.syncs++
	}
	return st.lsn, nil
}

// Sync flushes the active WAL segment to stable storage. With Options.Fsync
// every append already syncs; without it, Sync is the drain hook Close and
// graceful shutdown use.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.seg == nil || st.seg.f == nil {
		return nil
	}
	if err := st.seg.f.Sync(); err != nil {
		return err
	}
	st.syncs++
	return nil
}

// LSN returns the last assigned log sequence number.
func (st *Store) LSN() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lsn
}

// Status returns a point-in-time view of the store.
func (st *Store) Status() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Status{
		Dir:                st.dir,
		LSN:                st.lsn,
		Dim:                st.dim,
		SnapshotLSN:        st.snapLSN,
		SnapshotUnixNano:   st.snapUnixNano,
		SnapshotBytes:      st.snapBytes,
		WALSegments:        st.frozenSegs,
		WALBytes:           st.frozenBytes,
		Appends:            st.appends,
		Syncs:              st.syncs,
		Fsync:              st.fsync,
		CheckpointsStarted: st.ckptStarted,
		CheckpointsWritten: st.ckptWritten,
		LastCheckpointErr:  st.lastCkptErr,
		LastRecovery:       st.recovery,
	}
	if st.seg != nil {
		s.WALSegments++
		s.WALBytes += st.seg.size
	}
	return s
}

// Checkpoint is a two-phase snapshot in flight: BeginCheckpoint (cheap,
// executor-side) captured the state and rotated the log; Write (heavy) may
// run on any goroutine while the executor keeps serving.
type Checkpoint struct {
	st    *Store
	snap  Snapshot
	start time.Time
}

// BeginCheckpoint captures tree's state for a snapshot at the current LSN
// and rotates the WAL to a fresh segment, so subsequent LogBatch appends
// land past the checkpoint. It must run on the goroutine that owns the tree
// with no batch in flight (every logged record committed). The heavy
// encode/write/GC work happens in the returned Checkpoint's Write.
func (st *Store) BeginCheckpoint(tree *core.Tree) (*Checkpoint, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	if st.checkpointInFlight {
		st.mu.Unlock()
		return nil, fmt.Errorf("persist: checkpoint already in flight")
	}
	lsn := st.lsn
	var old *walSegment
	if st.seg == nil || st.seg.startLSN <= lsn {
		// The active segment holds records the snapshot will cover — rotate
		// to a fresh one so it can be GC'd once the snapshot is durable.
		newSeg, err := createWALSegment(walPath(st.dir, lsn+1), st.dim, lsn+1, st.fsync)
		if err != nil {
			st.mu.Unlock()
			return nil, err
		}
		old = st.seg
		st.seg = newSeg
		if old != nil {
			st.frozenSegs++
			st.frozenBytes += old.size
		}
	}
	// Otherwise the active segment is already empty past lsn (fresh after
	// Open or a back-to-back checkpoint): no rotation needed.
	st.checkpointInFlight = true
	st.ckptStarted++
	st.mu.Unlock()

	if old != nil {
		// Freeze the outgoing segment: sync its tail (it holds records the
		// snapshot claims to cover) and close it.
		if old.f != nil {
			_ = old.f.Sync()
		}
		_ = old.close()
	}
	return &Checkpoint{st: st, snap: CoreSnapshot(tree, lsn, time.Now().UnixNano()), start: time.Now()}, nil
}

// Write encodes the captured snapshot, writes it atomically, and then
// garbage-collects WAL segments and snapshots it supersedes. Safe to run on
// a background goroutine.
func (c *Checkpoint) Write() error {
	st := c.st
	lsn := c.snap.Meta.AppliedLSN
	bytes, err := WriteSnapshotFile(snapPath(st.dir, lsn), c.snap)
	removed := 0
	if err == nil {
		removed = st.gcAfterCheckpoint(lsn)
	}

	st.mu.Lock()
	st.checkpointInFlight = false
	if err != nil {
		st.lastCkptErr = err.Error()
	} else {
		st.ckptWritten++
		st.lastCkptErr = ""
		st.snapLSN = lsn
		st.snapUnixNano = c.snap.Meta.CreatedUnixNano
		st.snapBytes = bytes
		st.frozenSegs, st.frozenBytes = st.scanFrozen()
	}
	cb := st.onCheckpoint
	st.mu.Unlock()

	if cb != nil {
		cb(CheckpointInfo{
			LSN:             lsn,
			Items:           len(c.snap.Items),
			Bytes:           bytes,
			Wall:            time.Since(c.start),
			SegmentsRemoved: removed,
			Err:             err,
		})
	}
	return err
}

// gcAfterCheckpoint removes WAL segments fully covered by the snapshot at
// lsn (every segment that starts at or below it — rotation guarantees their
// records are all ≤ lsn) and all but the newest keepSnapshots snapshots.
func (st *Store) gcAfterCheckpoint(lsn uint64) (removed int) {
	segs, _ := listSeqFiles(st.dir, walPrefix, walSuffix)
	for _, sf := range segs {
		if sf.seq <= lsn {
			if os.Remove(sf.path) == nil {
				removed++
			}
		}
	}
	snaps, _ := listSeqFiles(st.dir, snapPrefix, snapSuffix)
	for i := 0; i < len(snaps)-keepSnapshots; i++ {
		_ = os.Remove(snaps[i].path)
	}
	syncDir(st.dir)
	return removed
}

// Checkpoint is the one-call form of BeginCheckpoint + Write, for callers
// without a concurrency split (benchmarks, examples, shutdown flush).
func (st *Store) Checkpoint(tree *core.Tree) error {
	c, err := st.BeginCheckpoint(tree)
	if err != nil {
		return err
	}
	return c.Write()
}

// Close syncs and closes the active segment. Further operations return
// ErrClosed. The caller is responsible for finishing or abandoning any
// in-flight Checkpoint first (serve's executor drains its checkpointer
// before closing the store).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.seg != nil && st.seg.f != nil {
		if err := st.seg.f.Sync(); err != nil {
			st.seg.close()
			return err
		}
	}
	return st.seg.close()
}
