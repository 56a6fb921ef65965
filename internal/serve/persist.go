package serve

import (
	"time"

	"pimkd/internal/persist"
)

// Durable-write mode. When Config.Persist is set, every write batch reaches
// the tree through commit (scheduler.go), which appends its delete set and
// its insert set to the write-ahead log as one frame *before* applying
// either — a request is only ever acknowledged after its batch is durable,
// and a crash mid-append keeps both sets or neither — and a background
// checkpointer periodically folds the log into a fresh snapshot without
// blocking the executor:
//
//	executor (owns tree):  commit: LogBatches → BatchDelete/Insert → reply →
//	                       maybe BeginCheckpoint (cheap: capture items +
//	                       rotate WAL)
//	checkpointer:          Checkpoint.Write (heavy: encode, fsync, rename, GC)
//
// BeginCheckpoint runs between batches on the executor, so the captured
// state is exactly "all logged records applied"; the heavy write overlaps
// subsequent batches. Close drains the checkpointer and syncs the WAL before
// returning, so no acknowledged write or started checkpoint is ever in
// flight after shutdown.

// maybeCheckpoint runs on the executor after each committed write batch and
// starts a checkpoint when either trigger (batch count, wall interval) is
// due. The cheap capture-and-rotate happens inline; the heavy write is
// handed to the checkpointer goroutine. If the previous checkpoint is still
// writing, the trigger stays armed and fires on a later batch.
func (s *Service) maybeCheckpoint() {
	s.writesSinceCkpt++
	due := (s.cfg.CheckpointEvery > 0 && s.writesSinceCkpt >= s.cfg.CheckpointEvery) ||
		(s.cfg.CheckpointInterval > 0 && time.Since(s.lastCkpt) >= s.cfg.CheckpointInterval)
	if !due {
		return
	}
	ckpt, err := s.cfg.Persist.BeginCheckpoint(s.tree)
	if err != nil {
		return
	}
	s.writesSinceCkpt = 0
	s.lastCkpt = time.Now()
	// Never blocks: BeginCheckpoint's in-flight gate admits a new
	// checkpoint only after the previous Write consumed its slot.
	s.persistCh <- ckpt
}

// runCheckpointer performs checkpoint writes off the executor's critical
// path. Write errors are recorded in the store's status (LastCheckpointErr)
// and surfaced on /persistz.
func (s *Service) runCheckpointer() {
	defer close(s.persistDone)
	for c := range s.persistCh {
		_ = c.Write()
	}
}

// drainPersist runs as the executor exits, after the batch channel is fully
// drained: every acknowledged write has been logged and committed. It stops
// the checkpointer, waits for any in-flight snapshot write to land, and
// syncs the WAL tail — the guarantee behind "Close returns ⇒ acknowledged
// state is durable".
func (s *Service) drainPersist() {
	if s.cfg.Persist == nil {
		return
	}
	close(s.persistCh)
	<-s.persistDone
	_ = s.cfg.Persist.Sync()
}

// PersistStatus returns the durability store's status; ok is false when the
// service runs without persistence.
func (s *Service) PersistStatus() (persist.Status, bool) {
	if s.cfg.Persist == nil {
		return persist.Status{}, false
	}
	return s.cfg.Persist.Status(), true
}
