package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
)

func treeConfig() core.Config {
	return core.Config{Dim: dim, LeafSize: leafSize, Seed: programSeed}
}

// everything is a box that holds every point the benchmark generates.
func everything() geom.Box {
	return geom.Box{Lo: geom.Point{-1, -1}, Hi: geom.Point{2, 2}}
}

// runServeRead is the serve_read workload: one volatile service over a
// built tree, a read-only mix, so the serve scheduler and the core read
// path do the work and persist and shard do none.
func runServeRead(e *env) *passResult {
	return runServing(e, "serve_read", func(sv *servingRun) (*stack, error) {
		mach := pim.NewMachine(modulesP, cacheWords)
		tree := core.New(treeConfig(), mach)
		t0 := time.Now()
		tree.Build(sv.in.items())
		sv.loadSeconds = time.Since(t0).Seconds()
		svc := sv.hooks.newService(serve.Config{Seed: programSeed}, tree)
		st := &stack{be: serviceBackend{svc}, services: []*serve.Service{svc}}
		st.close = func() { _ = svc.Close() }
		if e.tr != nil {
			st.finish = func(res *passResult, sv *servingRun) { runLadder(e, res, sv.in, false) }
		}
		return st, nil
	})
}

// checkpointLog collects persist.Options.OnCheckpoint records.
type checkpointLog struct {
	mu    sync.Mutex
	infos []persist.CheckpointInfo
	ends  []time.Time
}

func (c *checkpointLog) on(info persist.CheckpointInfo) {
	c.mu.Lock()
	c.infos = append(c.infos, info)
	c.ends = append(c.ends, time.Now())
	c.mu.Unlock()
}

// runServeDurableWrite is the serve_durable_write workload: the same
// service with a persist.Store (fsync on, checkpoint every 256 write
// batches) under a write-heavy mix, so WAL appends, fsyncs and background
// checkpoints do most of the work.
func runServeDurableWrite(e *env) *passResult {
	setup := 0
	return runServing(e, "serve_durable_write", func(sv *servingRun) (*stack, error) {
		setup++
		dir := filepath.Join(e.runDir, fmt.Sprintf("durable-%d", setup))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		ckpts := &checkpointLog{}
		mach := pim.NewMachine(modulesP, cacheWords)
		store, tree, _, err := persist.Open(dir, persist.Options{Machine: mach, Tree: treeConfig(), Fsync: true, OnCheckpoint: ckpts.on})
		if err != nil {
			return nil, fmt.Errorf("persist.Open: %w", err)
		}
		// The bulk load never touches the WAL; checkpoint it as
		// cmd/pimkd-server does, so the directory is recoverable from here.
		t0 := time.Now()
		tree.Build(sv.in.items())
		if err := store.Checkpoint(tree); err != nil {
			store.Close()
			return nil, fmt.Errorf("initial checkpoint: %w", err)
		}
		sv.loadSeconds = time.Since(t0).Seconds()
		setupCkpts := len(ckpts.infos)
		before := store.Status()
		svc := sv.hooks.newService(serve.Config{Seed: programSeed, Persist: store, CheckpointEvery: 256}, tree)

		st := &stack{be: serviceBackend{svc}, services: []*serve.Service{svc}}
		// shutdown closes the service, then the store, once. Service.Close
		// drains the checkpointer and syncs the WAL; only then is the store
		// quiescent and its status final.
		var after persist.Status
		closed := false
		shutdown := func() {
			if !closed {
				closed = true
				_ = svc.Close()
				after = store.Status()
				_ = store.Close()
			}
		}
		st.close = func() {
			shutdown()
			_ = os.RemoveAll(dir)
		}
		st.finish = func(res *passResult, sv *servingRun) {
			shutdown()
			durableMetrics(res, sv, ckpts, setupCkpts, before, after)
			recoverAndCompare(res, sv, dir)
			if e.tr != nil {
				appendLatency(res, sv, filepath.Join(e.runDir, "append-probe"))
			}
		}
		return st, nil
	})
}

// userBytesPerWrite is what one insert or delete carries: the coordinates
// and the id.
const userBytesPerWrite = 8*dim + 4

// durableMetrics fills the persist.* counts from Store.Status deltas and
// the checkpoint log.
func durableMetrics(res *passResult, sv *servingRun, ckpts *checkpointLog, skip int, before, after persist.Status) {
	appends := int64(after.Appends - before.Appends)
	res.set("persist.appends", float64(appends), 0)
	res.set("persist.syncs", float64(after.Syncs-before.Syncs), 0)
	// A WAL frame is a fixed header plus a fixed size per item, so the
	// bytes appended follow from the number of appends and of writes.
	frame0 := len(persist.EncodeWALRecord(persist.WALRecord{Op: persist.OpInsert}, dim))
	frame1 := len(persist.EncodeWALRecord(persist.WALRecord{Op: persist.OpInsert, Items: []core.Item{{P: geom.Point{0, 0}}}}, dim))
	var writes int64
	for i := range sv.acked {
		if sv.acked[i].Load() {
			writes++
		}
	}
	for i := range sv.deleted {
		if sv.deleted[i].Load() {
			writes++
		}
	}
	walBytes := appends*int64(frame0) + writes*int64(frame1-frame0)
	ckpts.mu.Lock()
	infos := ckpts.infos[skip:]
	ckpts.mu.Unlock()
	var snapBytes int64
	var walls []int64
	for _, c := range infos {
		if c.Err != nil {
			res.oracleFail(fmt.Errorf("checkpoint at lsn %d: %w", c.LSN, c.Err))
			continue
		}
		snapBytes += c.Bytes
		walls = append(walls, int64(c.Wall))
	}
	res.set("persist.checkpoints", float64(len(infos)), 0)
	if len(walls) > 0 {
		res.set("persist.checkpoint_ms_p50", ms(medianInt(walls)), len(walls))
		res.set("persist.checkpoint_bytes", float64(snapBytes)/float64(len(walls)), len(walls))
	}
	if writes > 0 {
		res.set("persist.wal_bytes_per_write", float64(walBytes)/float64(writes), int(writes))
		res.set("persist.write_amp", float64(walBytes+snapBytes)/float64(writes*userBytesPerWrite), int(writes))
	}
	if sv.e.tr != nil {
		ckpts.mu.Lock()
		for i, c := range ckpts.infos[skip:] {
			end := sv.e.tr.since(ckpts.ends[skip+i])
			sv.e.tr.add(span{Name: fmt.Sprintf("checkpoint lsn=%d", c.LSN), Cat: "persist.checkpoint", Start: end - int64(c.Wall), End: end, Track: 50})
		}
		ckpts.mu.Unlock()
	}
}

// recoverAndCompare reopens the data directory as a restart would and
// demands the recovered set equal the ledger. The process was not killed
// and the OS cache was not discarded, so this checks log-before-ack — every
// acknowledged write is in the snapshot or the log — not power-fail safety.
func recoverAndCompare(res *passResult, sv *servingRun, dir string) {
	t0 := time.Now()
	store, tree, rec, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(modulesP, cacheWords), Tree: treeConfig(), Fsync: true})
	wall := time.Since(t0)
	res.OracleChecks++
	if err != nil {
		res.oracleFail(fmt.Errorf("reopening %s: %w", dir, err))
		return
	}
	defer store.Close()
	res.set("persist.recover_ms", ms(int64(wall)), 1)
	res.set("persist.replay_records", float64(rec.ReplayRecords), 0)
	res.oracleFail(checkStoredSet("recovered after reopen", tree.Items(), sv.ledger()))
	res.Notes = append(res.Notes, "recovery check: the OS cache was not discarded, so it proves log-before-ack, not power-fail safety; fsync latency is the sandbox's, not a device's")
}

// appendLatency times Store.LogBatch with fsync on, directly, on a second
// store, using the write-batch sizes the service formed in Phase B.
func appendLatency(res *passResult, sv *servingRun, dir string) {
	var sizes []int
	seen := map[batchKey]bool{}
	for _, ph := range sv.phases {
		for i := range ph.latNS {
			k := sv.reqBatch[ph.first+i]
			if ph.open() && (k.kind == "insert" || k.kind == "delete") && !seen[k] && len(sizes) < 400 {
				seen[k] = true
				sizes = append(sizes, k.size)
			}
		}
	}
	if len(sizes) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	defer os.RemoveAll(dir)
	store, _, _, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(modulesP, cacheWords), Tree: treeConfig(), Fsync: true})
	if err != nil {
		res.Notes = append(res.Notes, "append probe: "+err.Error())
		return
	}
	defer store.Close()
	walls := make([]int64, 0, len(sizes))
	seq := 0
	for _, n := range sizes {
		items := make([]core.Item, n)
		for i := range items {
			items[i] = sv.in.freshItem(tagProbe, seq)
			seq++
		}
		t0 := time.Now()
		if _, err := store.LogBatch(persist.OpInsert, items); err != nil {
			res.Notes = append(res.Notes, "append probe: "+err.Error())
			return
		}
		walls = append(walls, int64(time.Since(t0)))
	}
	p50 := medianInt(walls)
	res.set("persist.append_us_p50", us(p50), len(walls))
	if n := len(res.Budget); n >= 2 {
		reqP50 := res.Budget[n-1].MS
		row := budgetRow{Layer: "persist append (in wait)", MS: ms(p50), Share: ms(p50) / reqP50}
		res.Budget = append(res.Budget[:n-2], row, res.Budget[n-2], res.Budget[n-1])
	}
}
