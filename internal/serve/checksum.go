package serve

import (
	"encoding/binary"
	"math"

	"pimkd/internal/core"
	"pimkd/internal/shard"
)

// cellChecksum folds one cell's full replicated state — live items with
// their attributed expiry deadlines, plus orphaned expiry entries — into a
// count + order-independent 64-bit digest. Each element is hashed
// independently (FNV-1a 64 over a tagged canonical byte string) and the
// per-element hashes combine by wrapping sum, so the digest is invariant
// under element order but, unlike XOR, does not cancel duplicate pairs —
// a multiset that gained two copies of the same item still changes.
//
// Coverage matches restoreCell's diff exactly (item identity = id +
// priority bits + coordinate bits; deadline attribution; orphan entries),
// so checksum equality between two replicas means a RestoreCell between
// them would apply an empty diff, up to a ~2⁻⁶⁴ digest collision.
func cellChecksum(snap CellSnapshot) shard.CellChecksum {
	var digest uint64
	var buf []byte
	for i, it := range snap.Items {
		buf = appendChecksumElem(buf[:0], 0x01, it, snap.Deadlines[i])
		digest += fnv1a64(buf)
	}
	for i, it := range snap.Orphans {
		buf = appendChecksumElem(buf[:0], 0x02, it, snap.OrphanAts[i])
		digest += fnv1a64(buf)
	}
	return shard.CellChecksum{Count: uint64(len(snap.Items)), Digest: digest}
}

// appendChecksumElem serializes one element in the same canonical form the
// wire uses for items (id, priority bits, coordinate bits), prefixed by a
// domain tag (live item vs orphan entry) and suffixed by the deadline.
func appendChecksumElem(buf []byte, tag byte, it core.Item, at int64) []byte {
	buf = append(buf, tag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(it.ID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Priority))
	for _, v := range it.P {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(buf, uint64(at))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
