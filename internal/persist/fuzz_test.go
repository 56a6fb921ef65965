package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pimkd/internal/codec"
	"pimkd/internal/core"
	"pimkd/internal/pim"
)

// fuzzSeedSnapshot builds a small, valid snapshot image for seeding.
func fuzzSeedSnapshot() []byte {
	mach := pim.NewMachine(4, 1<<16)
	tree := core.New(core.Config{Dim: 2, Seed: 1, LeafSize: 4}, mach)
	tree.Build(testItems(32, 2, 3))
	return EncodeSnapshot(CoreSnapshot(tree, 7, 42))
}

// fuzzSeedWAL builds a small, valid WAL segment image for seeding.
func fuzzSeedWAL() []byte {
	items := testItems(8, 2, 3)
	buf := encodeWALHeader(2, 1)
	buf = append(buf, EncodeWALRecord(WALRecord{LSN: 1, Op: OpInsert, Items: items[:5]}, 2)...)
	buf = append(buf, EncodeWALRecord(WALRecord{LSN: 2, Op: OpDelete, Items: items[5:]}, 2)...)
	return buf
}

// overflowSnapshot is a CRC-valid snapshot whose META claims N = 1<<62
// items of dim 1 over an empty PNTS section: N × itemSize wraps to 0, so a
// size check by multiplication passes and the item allocation panics.
func overflowSnapshot() []byte {
	data := EncodeSnapshot(Snapshot{Meta: SnapshotMeta{Kind: KindCore, Dim: 1}})
	const metaOff = len(snapMagic) + 4 + 12 // META payload start
	meta := data[metaOff : metaOff+90]
	binary.LittleEndian.PutUint64(meta[66:], 1<<62) // N
	binary.LittleEndian.PutUint32(data[metaOff+90:], crc32.ChecksumIEEE(meta))
	return data
}

// TestDecodeSnapshotCountOverflow: a META item count whose byte size
// overflows is corruption, not a panic.
func TestDecodeSnapshotCountOverflow(t *testing.T) {
	if _, err := DecodeSnapshot(overflowSnapshot()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// fuzzSeedFrames builds three 2-d segments of one two-record frame each: a
// valid one, one whose second record skips an LSN, and one whose second
// record is cut short behind a valid frame CRC.
func fuzzSeedFrames() (valid, skip, short []byte) {
	items := testItems(5, 2, 3)
	recs := []WALRecord{{LSN: 1, Op: OpDelete, Items: items[:2]}, {LSN: 2, Op: OpInsert, Items: items[2:]}}
	valid = append(encodeWALHeader(2, 1), encodeWALFrame(2, recs...)...)
	recs[1].LSN = 3
	skip = append(encodeWALHeader(2, 1), encodeWALFrame(2, recs...)...)
	recs[1].LSN = 2
	c := codec.Frame(2, 0, 0)
	recs[0].walk(&c)
	recs[1].walk(&c)
	short = append(encodeWALHeader(2, 1), codec.Seal(c.Buf[:len(c.Buf)-5])...)
	return valid, skip, short
}

// TestWALMultiRecordFrame: a two-record frame scans to both records; a
// frame whose CRC holds but whose second record skips an LSN or is cut
// short is corruption, not a torn tail.
func TestWALMultiRecordFrame(t *testing.T) {
	valid, skip, short := fuzzSeedFrames()
	scan, err := ScanWALSegment(valid)
	if err != nil || scan.Torn || len(scan.Records) != 2 || scan.Records[1].LSN != 2 || scan.ValidLen != int64(len(valid)) {
		t.Fatalf("valid frame: %+v, %v", scan, err)
	}
	for name, data := range map[string][]byte{"lsn skip": skip, "short record": short} {
		if _, err := ScanWALSegment(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeSnapshot: arbitrary bytes must produce a typed error or a valid
// Snapshot — never a panic, and never a decoded snapshot whose declared
// sizes disagree with its contents.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("PKDSNAP1"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[20] ^= 0xff
	f.Add(mut)
	f.Add(overflowSnapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Structural consistency of anything that decodes cleanly.
		if snap.Meta.N != len(snap.Items) {
			t.Fatalf("meta N=%d but %d items", snap.Meta.N, len(snap.Items))
		}
		for _, it := range snap.Items {
			if len(it.P) != snap.Meta.Dim {
				t.Fatalf("item dim %d, meta dim %d", len(it.P), snap.Meta.Dim)
			}
		}
		// And it must re-encode and re-decode to the same bytes.
		if _, err := DecodeSnapshot(EncodeSnapshot(snap)); err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
	})
}

// FuzzScanWALSegment: arbitrary bytes must scan to a typed error or a clean
// (possibly torn-tail-truncated) record list — never a panic. ValidLen must
// always be a safe truncation point: rescanning the valid prefix must yield
// the identical records with no torn tail.
func FuzzScanWALSegment(f *testing.F) {
	valid := fuzzSeedWAL()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:walHeaderSize])
	f.Add(valid[:walHeaderSize-1])
	f.Add([]byte("PKDWAL01"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[walHeaderSize+9] ^= 0x01
	f.Add(mut)
	frame2, skip, short := fuzzSeedFrames()
	f.Add(frame2)
	f.Add(skip)
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := ScanWALSegment(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		if scan.ValidLen < walHeaderSize || scan.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d outside [%d, %d]", scan.ValidLen, walHeaderSize, len(data))
		}
		if !scan.Torn && scan.ValidLen != int64(len(data)) {
			t.Fatalf("clean scan but ValidLen %d != %d", scan.ValidLen, len(data))
		}
		// Truncating to ValidLen must be stable: same records, no tear.
		again, err := ScanWALSegment(data[:scan.ValidLen])
		if err != nil {
			t.Fatalf("rescan of valid prefix errored: %v", err)
		}
		if again.Torn || len(again.Records) != len(scan.Records) {
			t.Fatalf("rescan: torn=%v records=%d, want clean %d",
				again.Torn, len(again.Records), len(scan.Records))
		}
		for _, r := range scan.Records {
			if len(r.Items) > 0 && len(r.Items[0].P) != scan.Dim {
				t.Fatalf("record item dim %d, segment dim %d", len(r.Items[0].P), scan.Dim)
			}
		}
	})
}

// TestRegenFuzzCorpus rewrites the seed corpus under testdata/fuzz when run
// with PERSIST_REGEN_CORPUS=1; otherwise it only verifies the checked-in
// corpus files still parse as their intended kind.
func TestRegenFuzzCorpus(t *testing.T) {
	frame2, skip, short := fuzzSeedFrames()
	corpora := map[string][][]byte{
		"FuzzDecodeSnapshot": {
			fuzzSeedSnapshot(),
			fuzzSeedSnapshot()[:50],
			[]byte("PKDSNAP1\x02\x00\x00\x00"), // future version
			overflowSnapshot(),
		},
		"FuzzScanWALSegment": {
			fuzzSeedWAL(),
			fuzzSeedWAL()[:len(fuzzSeedWAL())-5], // torn tail
			[]byte("PKDWAL01\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"), // short header
			frame2, skip, short, // two-record frames: valid, LSN skip, short record
		},
	}
	if os.Getenv("PERSIST_REGEN_CORPUS") != "" {
		for name, seeds := range corpora {
			dir := filepath.Join("testdata", "fuzz", name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	for name := range corpora {
		dir := filepath.Join("testdata", "fuzz", name)
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("seed corpus missing in %s (regenerate with PERSIST_REGEN_CORPUS=1): %v", dir, err)
		}
	}
}
