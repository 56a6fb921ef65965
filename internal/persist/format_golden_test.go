package persist

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// formatGoldenPath holds one WAL segment image (an insert frame and a
// delete frame) and one snapshot image at dim 1, 2 and 3, the persist
// counterpart of shard's wire golden, plus one segment whose single frame
// carries a delete record and an insert record. The bytes on disk are the
// contract: a change to the encoders that is not a deliberate format change
// must leave this file untouched. Regenerate (only with a format change)
// with PERSIST_REGEN_GOLDEN=1.
var formatGoldenPath = filepath.Join("testdata", "format_golden.txt")

type formatImage struct {
	name string // "dim=2 wal"
	data []byte
}

// goldenItems is a fixed item list whose fields exercise sign bits,
// negative zero, infinities and subnormal-scale coordinates.
func goldenItems(dim int) []core.Item {
	vals := []float64{0.5, -0.25, math.Copysign(0, -1), 1e-300, math.Inf(1), -7.75, 3, math.Inf(-1)}
	items := make([]core.Item, 5)
	for i := range items {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = vals[(i+3*d)%len(vals)]
		}
		items[i] = core.Item{ID: int32(i*1000 - 2000), Priority: vals[(i+1)%len(vals)], P: p}
	}
	return items
}

// goldenSnapshotMeta is a META whose every field is nonzero, with a
// negative push-pull factor and seed.
func goldenSnapshotMeta(dim int) SnapshotMeta {
	return SnapshotMeta{
		Kind: KindCore, Dim: dim, LeafSize: 8, Groups: 3, ChunkSize: 64,
		PushPullFactor: -2, NoDelayedGroup1: true, Alpha: 0.25, Beta: 0.75, Seed: -42,
		P: 16, CacheM: 1 << 16, AppliedLSN: 8, CreatedUnixNano: 1_700_000_000_123_456_789,
	}
}

// goldenRecords is the record list of a golden segment of the given kind.
func goldenRecords(dim int, kind string) []WALRecord {
	items := goldenItems(dim)
	if kind == "wal-frame2" {
		return []WALRecord{{LSN: 7, Op: OpDelete, Items: items[3:]}, {LSN: 8, Op: OpInsert, Items: items[:3]}}
	}
	return []WALRecord{{LSN: 7, Op: OpInsert, Items: items[:3]}, {LSN: 8, Op: OpDelete, Items: items[3:]}}
}

// formatImages renders the current encoders' images.
func formatImages() []formatImage {
	var out []formatImage
	for _, dim := range []int{1, 2, 3} {
		wal := encodeWALHeader(dim, 7)
		for _, r := range goldenRecords(dim, "wal") {
			wal = append(wal, EncodeWALRecord(r, dim)...)
		}
		out = append(out,
			formatImage{fmt.Sprintf("dim=%d wal", dim), wal},
			formatImage{fmt.Sprintf("dim=%d snapshot", dim), EncodeSnapshot(Snapshot{Meta: goldenSnapshotMeta(dim), Items: goldenItems(dim)})})
	}
	frame2 := append(encodeWALHeader(2, 7), encodeWALFrame(2, goldenRecords(2, "wal-frame2")...)...)
	return append(out, formatImage{"dim=2 wal-frame2", frame2})
}

// readFormatGolden parses the checked-in golden file ("name<TAB>hex" per
// line).
func readFormatGolden(t *testing.T) []formatImage {
	t.Helper()
	raw, err := os.ReadFile(formatGoldenPath)
	if err != nil {
		t.Fatalf("format golden missing (regenerate with PERSIST_REGEN_GOLDEN=1): %v", err)
	}
	var out []formatImage
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hx, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		data, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, formatImage{name, data})
	}
	return out
}

// TestFormatGolden: the encoders emit, byte for byte, the WAL segments and
// snapshots in the golden file.
func TestFormatGolden(t *testing.T) {
	cur := formatImages()
	if os.Getenv("PERSIST_REGEN_GOLDEN") != "" {
		var b strings.Builder
		for _, g := range cur {
			fmt.Fprintf(&b, "%s\t%s\n", g.name, hex.EncodeToString(g.data))
		}
		if err := os.WriteFile(formatGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFormatGolden(t)
	if len(cur) != len(want) {
		t.Fatalf("%d images, golden file has %d (a new image needs a deliberate regenerate)", len(cur), len(want))
	}
	for i, g := range cur {
		if g.name != want[i].name {
			t.Fatalf("image %d is %q, golden has %q", i, g.name, want[i].name)
		}
		if !bytes.Equal(g.data, want[i].data) {
			t.Errorf("%s: image differs from golden\n got  %x\n want %x", g.name, g.data, want[i].data)
		}
	}
}

// TestFormatGoldenDecodes: every golden image decodes to the fixture it was
// encoded from.
func TestFormatGoldenDecodes(t *testing.T) {
	for _, g := range readFormatGolden(t) {
		var dim int
		var kind string
		if _, err := fmt.Sscanf(g.name, "dim=%d %s", &dim, &kind); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		items := goldenItems(dim)
		switch kind {
		case "wal", "wal-frame2":
			scan, err := ScanWALSegment(g.data)
			if err != nil || scan.Torn || scan.Dim != dim || scan.StartLSN != 7 {
				t.Fatalf("%s: scan %+v, %v", g.name, scan, err)
			}
			if want := goldenRecords(dim, kind); !reflect.DeepEqual(scan.Records, want) {
				t.Errorf("%s: records %+v, want %+v", g.name, scan.Records, want)
			}
		case "snapshot":
			snap, err := DecodeSnapshot(g.data)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			meta := goldenSnapshotMeta(dim)
			meta.N = len(items)
			if !reflect.DeepEqual(snap, Snapshot{Meta: meta, Items: items}) {
				t.Errorf("%s: decoded %+v", g.name, snap)
			}
		default:
			t.Fatalf("%s: unknown image kind", g.name)
		}
	}
}
