package serve

import (
	"hash/fnv"

	"pimkd/internal/codec"
	"pimkd/internal/core"
	"pimkd/internal/shard"
)

// cellChecksum folds one cell's full replicated state — live items with
// their attributed expiry deadlines, plus orphaned expiry entries — into a
// count + order-independent 64-bit digest. Each element is hashed
// independently (FNV-1a 64 over a domain tag — live item or orphan entry —
// then the item's codec bytes and the deadline) and the per-element hashes
// combine by wrapping sum, so the digest is invariant under element order
// but, unlike XOR, does not cancel duplicate pairs — a multiset that gained
// two copies of the same item still changes.
//
// Coverage matches restoreCell's diff exactly (item identity = id +
// priority bits + coordinate bits; deadline attribution; orphan entries),
// so checksum equality between two replicas means a RestoreCell between
// them would apply an empty diff, up to a ~2⁻⁶⁴ digest collision.
func cellChecksum(snap CellSnapshot) shard.CellChecksum {
	var digest uint64
	c, h := codec.Encoder(nil, 0), fnv.New64a()
	elem := func(tag byte, it *core.Item, at *int64) {
		c.Buf = append(c.Buf[:0], tag)
		c.Item(it)
		c.I64(at)
		h.Reset()
		h.Write(c.Buf)
		digest += h.Sum64()
	}
	for i := range snap.Items {
		elem(0x01, &snap.Items[i], &snap.Deadlines[i])
	}
	for i := range snap.Orphans {
		elem(0x02, &snap.Orphans[i], &snap.OrphanAts[i])
	}
	return shard.CellChecksum{Count: uint64(len(snap.Items)), Digest: digest}
}
