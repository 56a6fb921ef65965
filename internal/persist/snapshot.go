package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
)

// Snapshot file format (version 1), little-endian throughout:
//
//	magic   "PKDSNAP1"                        (8 bytes)
//	version uint32                            (= 1)
//	sections, each:
//	    tag     [4]byte                       ("META", "PNTS", "DONE")
//	    length  uint64                        (payload bytes)
//	    payload
//	    crc32   uint32                        (IEEE, of payload)
//
// META and PNTS are required, in that order; the zero-length DONE section
// terminates the file — a snapshot without it is a torn write and is
// rejected as a whole (snapshots are replaced atomically via temp + rename,
// so a valid predecessor is still on disk).
const (
	snapMagic       = "PKDSNAP1"
	snapVersion     = 1
	metaPayloadSize = 90
	// maxSectionLen bounds a single section so a corrupted length field
	// cannot drive a huge allocation.
	maxSectionLen = 1 << 31
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

// itemSize is the encoded size of one item in dimension dim.
func itemSize(dim int) int { return 4 + 8 + 8*dim }

func appendItem(buf []byte, it core.Item) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(it.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Priority))
	for _, c := range it.P {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	return buf
}

func decodeItem(data []byte, dim int) core.Item {
	it := core.Item{
		ID:       int32(binary.LittleEndian.Uint32(data)),
		Priority: math.Float64frombits(binary.LittleEndian.Uint64(data[4:])),
		P:        make(geom.Point, dim),
	}
	for d := 0; d < dim; d++ {
		it.P[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[12+8*d:]))
	}
	return it
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
	sw.buf = binary.LittleEndian.AppendUint64(append(sw.buf[:0], tag...), uint64(length))
	sw.write(sw.buf)
	sw.crc = 0
	body()
	sw.write(binary.LittleEndian.AppendUint32(sw.buf[:0], sw.crc))
}

// snapshotSize is the encoded size of a snapshot of n items in dimension
// dim: magic, version, and the META, PNTS and DONE sections with their
// 16 bytes of framing each.
func snapshotSize(dim, n int) int {
	return len(snapMagic) + 4 + 3*16 + metaPayloadSize + n*itemSize(dim)
}

// writeSnapshot streams snap to w in the version-1 format and returns the
// bytes written. The point set is encoded a chunk at a time under a running
// CRC, never as one payload.
func writeSnapshot(w io.Writer, snap Snapshot) (int64, error) {
	snap.Meta.N = len(snap.Items)
	sw := &snapWriter{w: w, buf: make([]byte, 0, chunkBytes+itemSize(snap.Meta.Dim))}
	sw.write(binary.LittleEndian.AppendUint32(append(sw.buf, snapMagic...), snapVersion))
	meta := encodeMeta(snap.Meta)
	sw.section("META", len(meta), func() { sw.payload(meta) })
	sw.section("PNTS", len(snap.Items)*itemSize(snap.Meta.Dim), func() {
		chunk := sw.buf[:0]
		for _, it := range snap.Items {
			if chunk = appendItem(chunk, it); len(chunk) >= chunkBytes {
				sw.payload(chunk)
				chunk = chunk[:0]
			}
		}
		sw.payload(chunk)
	})
	sw.section("DONE", 0, func() {})
	return sw.n, sw.err
}

func encodeMeta(m SnapshotMeta) []byte {
	buf := make([]byte, 0, metaPayloadSize)
	buf = append(buf, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.LeafSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Groups))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ChunkSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.PushPullFactor)))
	if m.NoDelayedGroup1 {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, 0) // a retired field's slot, always 0
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Alpha))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Beta))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Seed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.P))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.CacheM))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.N))
	buf = binary.LittleEndian.AppendUint64(buf, m.AppliedLSN)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.CreatedUnixNano))
	return buf
}

func decodeMeta(payload []byte) (SnapshotMeta, error) {
	var m SnapshotMeta
	if len(payload) != metaPayloadSize {
		return m, fmt.Errorf("%w: META payload %d bytes, want %d", ErrCorrupt, len(payload), metaPayloadSize)
	}
	m.Kind = TreeKind(payload[0])
	m.Dim = int(int32(binary.LittleEndian.Uint32(payload[1:])))
	m.LeafSize = int(int32(binary.LittleEndian.Uint32(payload[5:])))
	m.Groups = int(int32(binary.LittleEndian.Uint32(payload[9:])))
	m.ChunkSize = int(int32(binary.LittleEndian.Uint32(payload[13:])))
	m.PushPullFactor = int(int64(binary.LittleEndian.Uint64(payload[17:])))
	m.NoDelayedGroup1 = payload[25] != 0
	m.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(payload[30:]))
	m.Beta = math.Float64frombits(binary.LittleEndian.Uint64(payload[38:]))
	m.Seed = int64(binary.LittleEndian.Uint64(payload[46:]))
	m.P = int(int32(binary.LittleEndian.Uint32(payload[54:])))
	m.CacheM = int(int64(binary.LittleEndian.Uint64(payload[58:])))
	m.N = int(int64(binary.LittleEndian.Uint64(payload[66:])))
	m.AppliedLSN = binary.LittleEndian.Uint64(payload[74:])
	m.CreatedUnixNano = int64(binary.LittleEndian.Uint64(payload[82:]))
	if m.Kind != KindCore {
		return m, fmt.Errorf("%w: unknown tree kind %d", ErrCorrupt, m.Kind)
	}
	if m.Dim < 1 || m.Dim > 1<<16 {
		return m, fmt.Errorf("%w: impossible dimension %d", ErrCorrupt, m.Dim)
	}
	if m.N < 0 {
		return m, fmt.Errorf("%w: negative item count %d", ErrCorrupt, m.N)
	}
	return m, nil
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
	if len(data) < len(snapMagic)+4 {
		return snap, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return snap, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):]); v != snapVersion {
		return snap, fmt.Errorf("%w: snapshot version %d (this build reads %d)", ErrVersion, v, snapVersion)
	}
	off := len(snapMagic) + 4

	sections := map[string][]byte{}
	var order []string
	done := false
	for off < len(data) && !done {
		if len(data)-off < 16 {
			return snap, fmt.Errorf("%w: truncated section header at offset %d", ErrCorrupt, off)
		}
		tag := string(data[off : off+4])
		length := binary.LittleEndian.Uint64(data[off+4 : off+12])
		off += 12
		if length > maxSectionLen || length > uint64(len(data)-off) {
			return snap, fmt.Errorf("%w: section %q length %d exceeds file", ErrCorrupt, tag, length)
		}
		payload := data[off : off+int(length)]
		off += int(length)
		if len(data)-off < 4 {
			return snap, fmt.Errorf("%w: section %q missing CRC", ErrCorrupt, tag)
		}
		want := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if got := crc32.ChecksumIEEE(payload); got != want {
			return snap, fmt.Errorf("%w: section %q CRC %08x, want %08x", ErrCorrupt, tag, got, want)
		}
		if _, dup := sections[tag]; dup {
			return snap, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, tag)
		}
		sections[tag] = payload
		order = append(order, tag)
		done = tag == "DONE"
	}
	if !done {
		return snap, fmt.Errorf("%w: snapshot not terminated by DONE (torn write)", ErrCorrupt)
	}
	if len(order) != 3 || order[0] != "META" || order[1] != "PNTS" {
		return snap, fmt.Errorf("%w: section order %v, want [META PNTS DONE]", ErrCorrupt, order)
	}

	meta, err := decodeMeta(sections["META"])
	if err != nil {
		return snap, err
	}
	pts := sections["PNTS"]
	isz := itemSize(meta.Dim)
	if len(pts) != meta.N*isz {
		return snap, fmt.Errorf("%w: PNTS %d bytes, want %d items × %d", ErrCorrupt, len(pts), meta.N, isz)
	}
	items := make([]core.Item, meta.N)
	for i := range items {
		items[i] = decodeItem(pts[i*isz:], meta.Dim)
	}
	return Snapshot{Meta: meta, Items: items}, nil
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
