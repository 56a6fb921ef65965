package persist

import "testing"

// encodeSink and decodeSink keep the benchmarked results live.
var (
	encodeSink []byte
	decodeSink Snapshot
)

// BenchmarkSnapshotCodec encodes and decodes a snapshot of 2^16 2-d items:
// the item loop every checkpoint and every recovery runs.
func BenchmarkSnapshotCodec(b *testing.B) {
	snap := Snapshot{
		Meta:  SnapshotMeta{Kind: KindCore, Dim: 2, LeafSize: 8, P: 64},
		Items: testItems(1<<16, 2, 7),
	}
	data := EncodeSnapshot(snap)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			encodeSink = EncodeSnapshot(snap)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var err error
			if decodeSink, err = DecodeSnapshot(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
