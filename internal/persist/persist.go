// Package persist is the durability layer for the serving stack: it makes
// the host-authoritative state of a PIM-kd-tree survive process death.
//
// The paper's batch-dynamic kd-tree (and our fault layer on top of it)
// treats the host's state as the recovery root: a crashed *module* is
// rebuilt from the host in Θ(n/P). This package extends that story one
// level up, to *process* crashes, with the classic snapshot + write-ahead-
// log design:
//
//   - Snapshots are versioned binary files holding everything needed to
//     deterministically reconstruct the tree: the core.Config (including
//     the structure seed), the machine shape (P, cache), and every stored
//     point. Files are written to a temp name and renamed into place, with
//     a CRC32 per section, so a torn snapshot write is detected and the
//     previous snapshot used instead.
//   - The write-ahead log appends one CRC frame per commit, holding a record
//     per update batch (BatchDelete, BatchInsert), optionally fsync'd, and
//     the serving layer appends *before* the batch commits to the machine:
//     an acknowledged update is always durable, and a frame torn by a crash
//     mid-append is a commit that was never acknowledged.
//   - Open loads the newest valid snapshot, replays the WAL tail through
//     the normal metered batch path (the rounds carry the trace label
//     "persist/replay", so replay cost shows up in pim.Stats and traces
//     exactly like live batches), and physically truncates torn tail
//     records so appends can continue.
//
// Approximate counters are not persisted: they are exact immediately after
// (re)construction, so rebuilding from points regenerates them — the same
// property module recovery relies on. What recovery does NOT reproduce is
// the incremental tree *shape* of the crashed process (the snapshot is a
// point-set, not an arena image); query answers are unaffected because
// search is exact, but leaf-bucket enumeration order may differ. See
// DESIGN.md §8.
package persist

import "errors"

var (
	// ErrCorrupt marks data that fails structural validation (bad magic,
	// CRC mismatch in a non-tail position, impossible lengths, LSN gaps).
	ErrCorrupt = errors.New("persist: corrupt data")
	// ErrVersion marks a file whose format version this build cannot read.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrMismatch marks recovered state that is incompatible with the
	// caller's runtime (machine P differs from the snapshot's, WAL dim
	// differs from the tree's).
	ErrMismatch = errors.New("persist: state/runtime mismatch")
	// ErrClosed is returned by operations on a closed Store.
	ErrClosed = errors.New("persist: store closed")
)

// Op is the kind of an update batch in the write-ahead log.
type Op uint8

const (
	// OpInsert is a BatchInsert record.
	OpInsert Op = 1
	// OpDelete is a BatchDelete record.
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}
