package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pimkd/internal/geom"
)

// fuzzSeedPayloads returns valid payloads of every message type (dim 2)
// plus structurally interesting near-misses.
func fuzzSeedPayloads() [][]byte {
	var seeds [][]byte
	for i, m := range wireMessages(2) {
		seeds = append(seeds, encodePayload(uint64(i), m, 2))
	}
	valid := encodePayload(9, wireMessages(2)[3], 2) // a kNN request
	begin := encodePayload(10, MigrateBegin{
		Epoch:    2,
		Cell:     1,
		Box:      geom.NewBox(geom.Point{0.5, 0}, geom.Point{1, 1}),
		Source:   "127.0.0.1:9291",
		PageSize: 64,
	}, 2)
	badEpoch := encodePayload(11, MigrateCommit{Epoch: 1, Cell: 1}, 2)
	badEpoch[9] = 0 // epoch 0 is the malformed sentinel — epochs start at 1
	longSource := append([]byte(nil), begin...)
	longSource[1+8+8+4+32] = 0xff // source length past the body's end
	badFlag := encodePayload(12, MigrateResp{Staged: 3, Changed: true}, 2)
	badFlag[len(badFlag)-1] = 2 // a flag byte is 0 or 1
	seeds = append(seeds,
		valid[:len(valid)/2],                 // truncated body
		append(valid, 0xaa),                  // trailing byte
		valid[:9],                            // header only
		[]byte{0x7e, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown type
		begin[:len(begin)-7],                 // migration source cut short
		badEpoch,                             // malformed migration epoch
		longSource,                           // migration source overruns the body
		badFlag,                              // malformed migration response flag
		nil,
	)
	return seeds
}

// FuzzWireDecode: arbitrary payload bytes must decode to a typed ErrWire
// error or a valid message — never a panic — at every connection dimension.
// Anything that decodes cleanly must re-encode byte-identically (the
// encoding is canonical) and the request ID must be preserved.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeedPayloads() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dim := range []int{1, 2, 3} {
			reqID, m, err := DecodePayload(data, dim)
			if err != nil {
				if !errors.Is(err, ErrWire) {
					t.Fatalf("dim=%d: untyped decode error: %v", dim, err)
				}
				continue
			}
			again := encodePayload(reqID, m, dim)
			if !bytes.Equal(again, data) {
				t.Fatalf("dim=%d: decode→encode not canonical:\n in  %x\n out %x", dim, data, again)
			}
		}
	})
}

// FuzzWireFrame: arbitrary bytes fed to the frame reader must yield an
// error or a CRC-validated payload — never a panic, never an allocation
// beyond the frame cap.
func FuzzWireFrame(f *testing.F) {
	for _, seed := range fuzzSeedPayloads() {
		if seed == nil {
			continue
		}
		f.Add(EncodeFrame(1, Ping{}, 2))
		f.Add(seed) // raw payload bytes misinterpreted as a frame header
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted %d-byte payload beyond cap", len(payload))
		}
		// A CRC-valid frame's payload goes on to the payload decoder; it
		// must hold the no-panic contract too.
		_, _, _ = DecodePayload(payload, 2)
	})
}

// FuzzWireHandshake: arbitrary bytes must validate or fail typed — never
// panic.
func FuzzWireHandshake(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteHandshake(&buf, 2)
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("PKDSHRD1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, err := DecodeHandshake(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("untyped handshake error: %v", err)
			}
			return
		}
		if dim < 1 || dim > 1<<16-1 {
			t.Fatalf("accepted impossible dimension %d", dim)
		}
	})
}

// TestRegenFuzzCorpus rewrites the seed corpus under testdata/fuzz when run
// with SHARD_REGEN_CORPUS=1; otherwise it verifies the checked-in corpus
// still exists, so the fuzz-smoke CI lane always starts from real frames.
func TestRegenFuzzCorpus(t *testing.T) {
	var frames [][]byte
	for _, p := range fuzzSeedPayloads() {
		if p != nil {
			frames = append(frames, p)
		}
	}
	var buf bytes.Buffer
	_ = WriteHandshake(&buf, 2)
	corpora := map[string][][]byte{
		"FuzzWireDecode":    frames,
		"FuzzWireFrame":     {EncodeFrame(1, Ping{}, 2), EncodeFrame(2, wireMessages(2)[3], 2)},
		"FuzzWireHandshake": {buf.Bytes()},
	}
	if os.Getenv("SHARD_REGEN_CORPUS") != "" {
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
			t.Fatalf("seed corpus missing in %s (regenerate with SHARD_REGEN_CORPUS=1): %v", dir, err)
		}
	}
}
