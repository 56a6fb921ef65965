package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"pimkd/internal/codec"
	"pimkd/internal/core"
	"pimkd/internal/pim"
)

// Snapshot file format (version 1), little-endian throughout, each layout a
// walk over package codec:
//
//	magic   "PKDSNAP1"                        (8 bytes)
//	version uint32                            (= 1)
//	sections, each:
//	    tag     [4]byte                       ("META", "PNTS", "DONE")
//	    length  uint64                        (payload bytes)
//	    payload
//	    crc32   uint32                        (IEEE, of payload)
//
// META (SnapshotMeta's walk) and PNTS (META's N items back to back) are
// required, in that order; the zero-length DONE section terminates the file
// — a snapshot without it is a torn write and is rejected as a whole
// (snapshots are replaced atomically via temp + rename, so a valid
// predecessor is still on disk).
const (
	snapMagic   = "PKDSNAP1"
	snapVersion = 1
	// metaPayloadSize is META's length.
	metaPayloadSize = 90
)

// TreeKind identifies which index class a snapshot captures.
type TreeKind uint8

// KindCore is the PIM-kd-tree (core.Tree) — the serving stack's index and
// the only kind a snapshot holds.
const KindCore TreeKind = 1

// SnapshotMeta is the self-describing header of a snapshot: the full
// structural configuration (so recovery reconstructs a deterministic tree
// from the same structure seed) plus the WAL position the point set
// includes.
type SnapshotMeta struct {
	Kind     TreeKind
	Dim      int
	LeafSize int
	// Groups/ChunkSize/PushPullFactor/NoDelayedGroup1/Alpha/Beta/Seed
	// mirror core.Config.
	Groups          int
	ChunkSize       int
	PushPullFactor  int
	NoDelayedGroup1 bool
	Alpha           float64
	Beta            float64
	Seed            int64
	// P and CacheM describe the PIM machine the tree was bound to.
	P      int
	CacheM int
	// N is the number of stored items (must match the PNTS section).
	N int
	// AppliedLSN is the last WAL record folded into this snapshot; replay
	// resumes at AppliedLSN+1.
	AppliedLSN uint64
	// CreatedUnixNano is the wall-clock write time (informational).
	CreatedUnixNano int64
}

// Snapshot is a decoded snapshot: the meta header plus the full point set
// in tree order.
type Snapshot struct {
	Meta  SnapshotMeta
	Items []core.Item
}

// snapWriter streams a snapshot's sections to w, keeping a running CRC of
// the current section's payload and the first write error.
type snapWriter struct {
	w   io.Writer
	n   int64
	err error
	crc uint32
	buf []byte // section header/trailer and PNTS chunk scratch
}

// chunkBytes is how much of the PNTS payload is encoded before it is
// written and folded into the CRC.
const chunkBytes = 4 << 10

func (sw *snapWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	k, err := sw.w.Write(p)
	sw.n += int64(k)
	sw.err = err
}

// payload writes part of the current section's payload.
func (sw *snapWriter) payload(p []byte) {
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.write(p)
}

// section writes one section: tag, payload length, the payload that body
// streams through payload, and the payload's CRC.
func (sw *snapWriter) section(tag string, length int, body func()) {
	c := codec.Encoder(sw.buf[:0], 0)
	c.Magic(tag)
	n := uint64(length)
	c.U64(&n)
	sw.write(c.Buf)
	sw.crc = 0
	body()
	c.Buf = c.Buf[:0]
	c.U32(&sw.crc)
	sw.write(c.Buf)
}

// readSection reads back one section snapWriter.section wrote and returns
// its CRC-checked payload.
func readSection(c *codec.Cursor, tag string) []byte {
	c.Magic(tag)
	var n uint64
	c.U64(&n)
	from := c.Pos()
	payload := c.Take(c.Fits(int(n), 1))
	c.Sum(from)
	return payload
}

// snapshotSize is the encoded size of a snapshot of n items in dimension
// dim: magic, version, and the META, PNTS and DONE sections with their
// 16 bytes of framing each.
func snapshotSize(dim, n int) int {
	return len(snapMagic) + 4 + 3*16 + metaPayloadSize + n*codec.ItemSize(dim)
}

// writeSnapshot streams snap to w in the version-1 format and returns the
// bytes written. The point set is encoded a chunk at a time under a running
// CRC, never as one payload.
func writeSnapshot(w io.Writer, snap Snapshot) (int64, error) {
	snap.Meta.N = len(snap.Items)
	dim := snap.Meta.Dim
	sw := &snapWriter{w: w, buf: make([]byte, 0, chunkBytes+codec.ItemSize(dim))}
	hdr, version := codec.Encoder(sw.buf, 0), uint32(snapVersion)
	hdr.Magic(snapMagic)
	hdr.U32(&version)
	sw.write(hdr.Buf)
	meta := codec.Encoder(make([]byte, 0, metaPayloadSize), 0)
	snap.Meta.walk(&meta)
	sw.section("META", len(meta.Buf), func() { sw.payload(meta.Buf) })
	sw.section("PNTS", len(snap.Items)*codec.ItemSize(dim), func() {
		chunk := codec.Encoder(sw.buf[:0], dim)
		for i := range snap.Items {
			if chunk.Item(&snap.Items[i]); len(chunk.Buf) >= chunkBytes {
				sw.payload(chunk.Buf)
				chunk.Buf = chunk.Buf[:0]
			}
		}
		sw.payload(chunk.Buf)
	})
	sw.section("DONE", 0, func() {})
	return sw.n, sw.err
}

func (m *SnapshotMeta) walk(c *codec.Cursor) {
	c.U8((*uint8)(&m.Kind))
	c.Int32(&m.Dim)
	c.Int32(&m.LeafSize)
	c.Int32(&m.Groups)
	c.Int32(&m.ChunkSize)
	c.Int64(&m.PushPullFactor)
	c.Flag(&m.NoDelayedGroup1)
	var retired uint32 // a retired field's slot, always 0
	c.U32(&retired)
	c.F64(&m.Alpha)
	c.F64(&m.Beta)
	c.I64(&m.Seed)
	c.Int32(&m.P)
	c.Int64(&m.CacheM)
	c.Int64(&m.N)
	c.U64(&m.AppliedLSN)
	c.I64(&m.CreatedUnixNano)
	switch {
	case !c.Dec || c.Err != nil:
	case m.Kind != KindCore:
		c.Fail("unknown tree kind %d", m.Kind)
	case m.Dim < 1 || m.Dim > 1<<16:
		c.Fail("impossible dimension %d", m.Dim)
	case m.N < 0:
		c.Fail("negative item count %d", m.N)
	}
}

// EncodeSnapshot serializes snap to the version-1 binary format: the bytes
// WriteSnapshotFile writes.
func EncodeSnapshot(snap Snapshot) []byte {
	var buf bytes.Buffer
	buf.Grow(snapshotSize(snap.Meta.Dim, len(snap.Items)))
	_, _ = writeSnapshot(&buf, snap) // a bytes.Buffer write never fails
	return buf.Bytes()
}

// DecodeSnapshot parses a version-1 snapshot. Every structural violation —
// bad magic, unknown version, section CRC mismatch, truncated file, length
// or count inconsistencies — yields a typed error (ErrCorrupt or
// ErrVersion); DecodeSnapshot never panics on arbitrary input.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	c := codec.Decoder(data, 0, ErrCorrupt)
	var version uint32
	c.Magic(snapMagic)
	c.U32(&version)
	if c.Err != nil {
		return snap, c.Err
	}
	if version != snapVersion {
		return snap, fmt.Errorf("%w: snapshot version %d (this build reads %d)", ErrVersion, version, snapVersion)
	}
	meta := codec.Decoder(readSection(&c, "META"), 0, ErrCorrupt)
	pnts := readSection(&c, "PNTS")
	readSection(&c, "DONE")
	if c.Err != nil {
		return snap, c.Err
	}
	snap.Meta.walk(&meta)
	if err := meta.End(); err != nil {
		return snap, err
	}
	// META's N is checked against PNTS's bytes before anything is allocated.
	p := codec.Decoder(pnts, snap.Meta.Dim, ErrCorrupt)
	for i := range codec.List(&p, &snap.Items, snap.Meta.N, codec.ItemSize(snap.Meta.Dim)) {
		p.Item(&snap.Items[i])
	}
	return snap, p.End()
}

// WriteSnapshotFile atomically writes snap to path: the bytes go to a
// temporary sibling first, are fsync'd, and are renamed into place, so a
// crash mid-write can never destroy an existing valid snapshot. The
// encoding streams through a small write buffer, so a checkpoint holds no
// copy of the file in memory.
func WriteSnapshotFile(path string, snap Snapshot) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 64<<10)
	n, err := writeSnapshot(bw, snap)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	syncDir(filepath.Dir(path))
	return n, nil
}

// ReadSnapshotFile reads and decodes one snapshot file.
func ReadSnapshotFile(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	return DecodeSnapshot(data)
}

// syncDir fsyncs a directory so a rename is durable; best-effort (some
// filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// CoreSnapshot captures the host-authoritative state of a core.Tree: its
// full configuration (structure seed included), machine shape, and every
// stored point in tree order. appliedLSN is the last WAL record the state
// includes; now is the wall-clock stamp.
func CoreSnapshot(t *core.Tree, appliedLSN uint64, now int64) Snapshot {
	cfg := t.ConfigSnapshot()
	return Snapshot{
		Meta: SnapshotMeta{
			Kind:            KindCore,
			Dim:             cfg.Dim,
			LeafSize:        cfg.LeafSize,
			Groups:          cfg.Groups,
			ChunkSize:       cfg.ChunkSize,
			PushPullFactor:  cfg.PushPullFactor,
			NoDelayedGroup1: cfg.NoDelayedGroup1,
			Alpha:           cfg.Alpha,
			Beta:            cfg.Beta,
			Seed:            cfg.Seed,
			P:               t.Machine().P(),
			CacheM:          t.Machine().CacheM(),
			N:               t.Size(),
			AppliedLSN:      appliedLSN,
			CreatedUnixNano: now,
		},
		Items: t.Items(),
	}
}

// RestoreCore reconstructs a core.Tree from a KindCore snapshot on mach.
// The build runs through the normal metered construction path under the
// trace label "persist/load", so the cost of re-shipping state into the
// machine is visible in pim.Stats and traces.
func (s Snapshot) RestoreCore(mach *pim.Machine) (*core.Tree, error) {
	if s.Meta.Kind != KindCore {
		return nil, fmt.Errorf("%w: snapshot kind %d is not a core tree", ErrMismatch, s.Meta.Kind)
	}
	if mach.P() != s.Meta.P {
		return nil, fmt.Errorf("%w: machine has P=%d, snapshot was taken at P=%d", ErrMismatch, mach.P(), s.Meta.P)
	}
	cfg := core.Config{
		Dim:             s.Meta.Dim,
		Alpha:           s.Meta.Alpha,
		Beta:            s.Meta.Beta,
		LeafSize:        s.Meta.LeafSize,
		Groups:          s.Meta.Groups,
		PushPullFactor:  s.Meta.PushPullFactor,
		ChunkSize:       s.Meta.ChunkSize,
		NoDelayedGroup1: s.Meta.NoDelayedGroup1,
		Seed:            s.Meta.Seed,
	}
	tree := core.New(cfg, mach)
	if len(s.Items) > 0 {
		pop := mach.PushLabel("persist/load")
		tree.Build(s.Items)
		pop()
	}
	return tree, nil
}
