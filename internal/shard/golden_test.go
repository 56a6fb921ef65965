package shard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath holds one EncodeFrame image per wireMessages entry at dim 1, 2
// and 3, written by the encoder as it stood before the codec was rewritten
// around per-message walks. The bytes on the wire are the contract: a codec
// change that is not a deliberate protocol change must leave this file
// untouched. Regenerate (only with a wire version bump) with
// SHARD_REGEN_GOLDEN=1.
var goldenPath = filepath.Join("testdata", "wire_golden.txt")

type goldenFrame struct {
	name  string // "dim=2 msg=7 shard.UpdateReq"
	dim   int
	frame []byte
}

// goldenFrames renders the current encoder's frame for every message.
func goldenFrames() []goldenFrame {
	var out []goldenFrame
	for _, dim := range []int{1, 2, 3} {
		for i, m := range wireMessages(dim) {
			out = append(out, goldenFrame{
				name:  fmt.Sprintf("dim=%d msg=%d %T", dim, i, m),
				dim:   dim,
				frame: EncodeFrame(uint64(1000+i), m, dim),
			})
		}
	}
	return out
}

// readGolden parses the checked-in golden file ("name<TAB>hex" per line).
func readGolden(t *testing.T) []goldenFrame {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden frames missing (regenerate with SHARD_REGEN_GOLDEN=1): %v", err)
	}
	var out []goldenFrame
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hx, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		frame, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := goldenFrame{name: name, frame: frame}
		if _, err := fmt.Sscanf(name, "dim=%d", &g.dim); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, g)
	}
	return out
}

// TestGoldenFrames: the encoder emits, byte for byte, the frames the
// pre-rewrite encoder emitted for every message type at every dimension.
func TestGoldenFrames(t *testing.T) {
	cur := goldenFrames()
	if os.Getenv("SHARD_REGEN_GOLDEN") != "" {
		var b strings.Builder
		for _, g := range cur {
			fmt.Fprintf(&b, "%s\t%s\n", g.name, hex.EncodeToString(g.frame))
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(cur) != len(want) {
		t.Fatalf("%d messages, golden file has %d (a new message needs a deliberate regenerate)", len(cur), len(want))
	}
	for i, g := range cur {
		if g.name != want[i].name {
			t.Fatalf("frame %d is %q, golden has %q", i, g.name, want[i].name)
		}
		if !bytes.Equal(g.frame, want[i].frame) {
			t.Errorf("%s: frame differs from golden\n got  %x\n want %x", g.name, g.frame, want[i].frame)
		}
	}
}

// TestGoldenDecodeEncodeIdentity: every golden frame decodes, and encoding
// the decoded message reproduces the frame exactly.
func TestGoldenDecodeEncodeIdentity(t *testing.T) {
	for _, g := range readGolden(t) {
		payload, err := ReadFrame(bytes.NewReader(g.frame))
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", g.name, err)
		}
		reqID, m, err := DecodePayload(payload, g.dim)
		if err != nil {
			t.Fatalf("%s: DecodePayload: %v", g.name, err)
		}
		if again := EncodeFrame(reqID, m, g.dim); !bytes.Equal(again, g.frame) {
			t.Errorf("%s: decode→encode differs\n got  %x\n want %x", g.name, again, g.frame)
		}
	}
}

// TestGoldenTruncationAndTrailing: for every golden frame, every proper
// prefix of the payload and the payload plus one trailing byte is rejected
// with ErrWire and without panicking — the decoder's count-before-allocate,
// truncation and trailing-byte checks hold at every field boundary of every
// message, not just the ones TestDecodePayloadRejectsMalformedBodies names.
func TestGoldenTruncationAndTrailing(t *testing.T) {
	for _, g := range readGolden(t) {
		payload := g.frame[frameHeader:]
		for n := 0; n < len(payload); n++ {
			if _, _, err := DecodePayload(payload[:n:n], g.dim); !errors.Is(err, ErrWire) {
				t.Errorf("%s: %d-byte prefix of %d: err = %v, want ErrWire", g.name, n, len(payload), err)
			}
		}
		long := append(append([]byte(nil), payload...), 0)
		if _, _, err := DecodePayload(long, g.dim); !errors.Is(err, ErrWire) {
			t.Errorf("%s: trailing byte: err = %v, want ErrWire", g.name, err)
		}
	}
}

// TestEveryWireTypeHasARoundTripCase: every type byte registered in the
// decode table is produced by some wireMessages entry, so a new message
// cannot ship without joining the round-trip, golden and fuzz-seed cases.
func TestEveryWireTypeHasARoundTripCase(t *testing.T) {
	covered := map[byte]bool{}
	for _, m := range wireMessages(2) {
		covered[EncodeFrame(0, m, 2)[frameHeader]] = true
	}
	for tb, decode := range decoders {
		if decode != nil && !covered[byte(tb)] {
			t.Errorf("message type 0x%02x is registered in decoders but has no wireMessages case", tb)
		}
	}
}

// TestEncodeFrameOnlyReadsTheMessage: the walks run in both directions over
// the same fields, but encoding must never store to one — the router hands
// one request's slices to several replica clients at once. Two goroutines
// encoding the same messages make any such store a race-lane failure.
func TestEncodeFrameOnlyReadsTheMessage(t *testing.T) {
	msgs := wireMessages(2)
	done := make(chan [][]byte, 2)
	for g := 0; g < 2; g++ {
		go func() {
			var frames [][]byte
			for i, m := range msgs {
				frames = append(frames, EncodeFrame(uint64(i), m, 2))
			}
			done <- frames
		}()
	}
	a, b := <-done, <-done
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("msg %d (%T): concurrent encodes differ", i, msgs[i])
		}
	}
}
