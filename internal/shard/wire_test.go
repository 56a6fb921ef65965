package shard

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/mathx"
)

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != handshakeSize {
		t.Fatalf("handshake %d bytes, want %d", buf.Len(), handshakeSize)
	}
	dim, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 3 {
		t.Fatalf("dim = %d, want 3", dim)
	}

	if err := WriteHandshake(&bytes.Buffer{}, 0); err == nil {
		t.Error("dimension 0 accepted")
	}
	if err := WriteHandshake(&bytes.Buffer{}, 1<<16); err == nil {
		t.Error("dimension 65536 accepted")
	}
}

func TestHandshakeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 2); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }},
		{"bad version", func(b []byte) { b[8] = 99 }},
		{"bad dim bytes", func(b []byte) { b[10] ^= 0xff }},
		{"bad crc", func(b []byte) { b[12] ^= 0xff }},
	} {
		mut := append([]byte(nil), valid...)
		tc.mutate(mut)
		if _, err := DecodeHandshake(mut); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, err)
		}
	}
	if _, err := DecodeHandshake(valid[:10]); !errors.Is(err, ErrWire) {
		t.Errorf("short handshake: err = %v, want ErrWire", err)
	}
}

// wireMessages is one of each message type, covering empty and non-empty
// bodies, for roundtrip tests and the fuzz seed corpus.
func wireMessages(dim int) []any {
	pt := func(vs ...float64) geom.Point { return vs[:dim] }
	return []any{
		Ping{},
		Pong{Ready: true, Size: 12345, Synced: true, SyncGen: 3},
		Pong{Ready: false, Size: 0},
		KNNReq{K: 8, Points: []geom.Point{pt(0.25, 0.5, 0.75), pt(1, 2, 3)}},
		KNNResp{Results: [][]heapx.Candidate{
			{{Dist2: 0.125, ID: 7, P: pt(0.25, 0.5, 0.75)}, {Dist2: 0.125, ID: 9, P: pt(0.5, 0.25, 0.125)}},
			{},
		}},
		RangeReq{Boxes: []geom.Box{{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)}}},
		RangeResp{Results: [][]core.Item{
			{{ID: 3, Priority: 1.5, P: pt(0.5, 0.5, 0.5)}},
			{},
		}},
		UpdateReq{Delete: false, Items: []core.Item{{ID: 1, P: pt(0.1, 0.2, 0.3)}}},
		UpdateReq{Delete: true, Items: []core.Item{{ID: 2, P: pt(0.9, 0.8, 0.7)}}},
		UpdateResp{Applied: 42},
		JoinReq{Radius: 0.25, Points: []geom.Point{pt(0.5, 0.5, 0.5), pt(0, 1, 0)}},
		JoinReq{Radius: 0, Points: nil},
		AggReq{Boxes: []geom.Box{{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)}}},
		AggResp{Results: []core.BoxAggregate{
			aggOf(dim, 0.5, -0.25, 1e-3, 3.75),
			{Count: 0, Sums: make([]mathx.ExactSum, dim)},
		}},
		IngestReq{
			Items:     []core.Item{{ID: 5, Priority: 0.5, P: pt(0.3, 0.3, 0.3)}},
			ExpireAts: []int64{12345},
		},
		ExpireReq{Now: 999},
		ExpireResp{Expired: 7},
		StatsReq{},
		StatsResp{Kinds: []KindLatency{
			{Kind: "knn", Max: 4096, Buckets: []HistBucket{{Low: 32, Count: 10}, {Low: 4096, Count: 1}}},
			{Kind: "range", Max: 0, Buckets: nil},
		}},
		&RemoteError{Code: CodeUnavailable, Msg: "draining"},
		&RemoteError{Code: CodeBadRequest, Msg: ""},
		CellSnapshotReq{Cell: 2, Box: geom.Box{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)}, Offset: 128, Limit: 64},
		CellSnapshotReq{Cell: 0, Box: infBox(dim), Offset: 0, Limit: 0},
		CellSnapshotResp{
			Total:     3,
			Items:     []core.Item{{ID: 4, Priority: 0.25, P: pt(0.1, 0.1, 0.1)}, {ID: 6, P: pt(0.2, 0.2, 0.2)}},
			ExpireAts: []int64{9000, math.MinInt64},
			Orphans:   []core.Item{{ID: 9, P: pt(0.4, 0.4, 0.4)}},
			OrphanAts: []int64{750},
		},
		CellSnapshotResp{Total: 0},
		ResyncReq{},
		ResyncReq{Evidenced: true},
		ResyncResp{Started: true, Target: 7},
		ResyncResp{Started: false},
		AggCellsReq{
			Box:   geom.Box{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)},
			Cells: []geom.Box{{Lo: pt(0, 0, 0), Hi: pt(0.5, 1, 1)}, infBox(dim)},
		},
		CellChecksumReq{
			Cells: []int{0, 3},
			Boxes: []geom.Box{{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)}, infBox(dim)},
		},
		CellChecksumReq{},
		CellChecksumResp{Sums: []CellChecksum{
			{Count: 12345, Digest: 0xdeadbeefcafef00d},
			{Count: 0, Digest: 0},
		}},
		CellChecksumResp{},
		MigrateBegin{
			Epoch:    2,
			Cell:     4,
			Box:      geom.Box{Lo: pt(0.5, 0, 0), Hi: pt(1, 1, 1)},
			Source:   "127.0.0.1:9291",
			PageSize: 512,
		},
		MigrateBegin{Epoch: 1, Cell: 0, Box: infBox(dim)},
		MigrateCommit{
			Epoch: 2,
			Cell:  4,
			Ops: []MigrateOp{
				{Delete: false, Item: core.Item{ID: 14, P: pt(0.9, 0.4, 0.4)}, ExpireAt: 5000},
				{Delete: true, Item: core.Item{ID: 11, P: pt(0.6, 0.1, 0.1)}, ExpireAt: UntrackedDeadline},
			},
		},
		MigrateCommit{Epoch: 9, Cell: 2},
		MigrateResp{Staged: 3, Changed: true},
		MigrateResp{},
	}
}

// infBox is a partition outer cell: every face at ±Inf.
func infBox(dim int) geom.Box {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		lo[d] = math.Inf(-1)
		hi[d] = math.Inf(1)
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// aggOf builds a dim-dimensional aggregate whose exact sums each hold the
// given values.
func aggOf(dim int, vs ...float64) core.BoxAggregate {
	a := core.BoxAggregate{Count: int64(len(vs)), Sums: make([]mathx.ExactSum, dim)}
	for d := 0; d < dim; d++ {
		for _, v := range vs {
			a.Sums[d].Add(v * float64(d+1))
		}
	}
	return a
}

func TestFrameRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		for i, m := range wireMessages(dim) {
			reqID := uint64(1000 + i)
			frame := EncodeFrame(reqID, m, dim)
			payload, err := ReadFrame(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("dim=%d msg %d (%T): ReadFrame: %v", dim, i, m, err)
			}
			gotID, got, err := DecodePayload(payload, dim)
			if err != nil {
				t.Fatalf("dim=%d msg %d (%T): DecodePayload: %v", dim, i, m, err)
			}
			if gotID != reqID {
				t.Fatalf("dim=%d msg %d: reqID %d, want %d", dim, i, gotID, reqID)
			}
			if !wireEqual(got, m) {
				t.Fatalf("dim=%d msg %d: decoded %#v, want %#v", dim, i, got, m)
			}
		}
	}
}

// wireEqual compares messages treating nil and empty slices as equal (the
// decoder materializes empty slices where the encoder may have had nil).
func wireEqual(a, b any) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m any) any {
	switch v := m.(type) {
	case KNNReq:
		if len(v.Points) == 0 {
			v.Points = nil
		}
		return v
	case KNNResp:
		for i := range v.Results {
			if len(v.Results[i]) == 0 {
				v.Results[i] = nil
			}
		}
		return v
	case RangeResp:
		for i := range v.Results {
			if len(v.Results[i]) == 0 {
				v.Results[i] = nil
			}
		}
		return v
	case UpdateReq:
		if len(v.Items) == 0 {
			v.Items = nil
		}
		return v
	case JoinReq:
		if len(v.Points) == 0 {
			v.Points = nil
		}
		return v
	case IngestReq:
		if len(v.Items) == 0 {
			v.Items = nil
		}
		if len(v.ExpireAts) == 0 {
			v.ExpireAts = nil
		}
		return v
	case StatsResp:
		if len(v.Kinds) == 0 {
			v.Kinds = nil
		}
		for i := range v.Kinds {
			if len(v.Kinds[i].Buckets) == 0 {
				v.Kinds[i].Buckets = nil
			}
		}
		return v
	case CellSnapshotResp:
		if len(v.Items) == 0 {
			v.Items = nil
		}
		if len(v.ExpireAts) == 0 {
			v.ExpireAts = nil
		}
		if len(v.Orphans) == 0 {
			v.Orphans = nil
		}
		if len(v.OrphanAts) == 0 {
			v.OrphanAts = nil
		}
		return v
	case AggCellsReq:
		if len(v.Cells) == 0 {
			v.Cells = nil
		}
		return v
	case CellChecksumReq:
		if len(v.Cells) == 0 {
			v.Cells = nil
		}
		if len(v.Boxes) == 0 {
			v.Boxes = nil
		}
		return v
	case CellChecksumResp:
		if len(v.Sums) == 0 {
			v.Sums = nil
		}
		return v
	case MigrateCommit:
		if len(v.Ops) == 0 {
			v.Ops = nil
		}
		return v
	}
	return m
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := EncodeFrame(7, Pong{Ready: true, Size: 99}, 2)

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(flipped)); !errors.Is(err, ErrWire) {
		t.Errorf("payload bit flip: err = %v, want ErrWire", err)
	}

	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Error("truncated frame accepted")
	}

	huge := append([]byte(nil), frame...)
	huge[3] = 0xff // length field now > maxFramePayload
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrWire) {
		t.Errorf("oversize length: err = %v, want ErrWire", err)
	}
}

func TestDecodePayloadRejectsMalformedBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func() []byte
	}{
		{"trailing bytes", func() []byte {
			p := encodePayload(1, Ping{}, 2)
			return append(p, 0xaa)
		}},
		{"truncated body", func() []byte {
			p := encodePayload(1, Pong{Ready: true, Size: 5}, 2)
			return p[:len(p)-3]
		}},
		{"count exceeds remaining", func() []byte {
			p := encodePayload(1, UpdateReq{Items: []core.Item{{ID: 1, P: geom.Point{0, 0}}}}, 2)
			p[9] = 0xff // inflate the item count without adding bytes
			return p
		}},
		{"inverted box", func() []byte {
			return encodePayload(1, RangeReq{Boxes: []geom.Box{
				{Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0}},
			}}, 2)
		}},
		{"nan box", func() []byte {
			return encodePayload(1, RangeReq{Boxes: []geom.Box{
				{Lo: geom.Point{math.NaN(), 0}, Hi: geom.Point{1, 1}},
			}}, 2)
		}},
		{"zero k", func() []byte {
			return encodePayload(1, KNNReq{K: 0, Points: []geom.Point{{0, 0}}}, 2)
		}},
		{"pong ready byte", func() []byte {
			p := encodePayload(1, Pong{Ready: true, Size: 5}, 2)
			p[9] = 2
			return p
		}},
		{"error msg length mismatch", func() []byte {
			p := encodePayload(1, &RemoteError{Code: 1, Msg: "xyz"}, 2)
			return p[:len(p)-1]
		}},
		{"unknown type", func() []byte {
			p := encodePayload(1, Ping{}, 2)
			p[0] = 0x7e
			return p
		}},
		{"negative join radius", func() []byte {
			return encodePayload(1, JoinReq{Radius: -0.5, Points: []geom.Point{{0, 0}}}, 2)
		}},
		{"nan join radius", func() []byte {
			return encodePayload(1, JoinReq{Radius: math.NaN(), Points: []geom.Point{{0, 0}}}, 2)
		}},
		{"inf join radius", func() []byte {
			return encodePayload(1, JoinReq{Radius: math.Inf(1), Points: []geom.Point{{0, 0}}}, 2)
		}},
		{"inverted aggregate box", func() []byte {
			return encodePayload(1, AggReq{Boxes: []geom.Box{
				{Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0}},
			}}, 2)
		}},
		{"zero aggregate sum word", func() []byte {
			// One sum with a single explicit zero word: decodes to the same
			// accumulator as no terms at all, so canonical decode rejects it.
			a := aggOf(2, 1.5)
			p := encodePayload(1, AggResp{Results: []core.BoxAggregate{a}}, 2)
			// Blank the term's 8 word bytes (layout: count u32, n u64,
			// flags u8, nterms u16, idx u16, word u64).
			off := len(p) - 8
			for i := off; i < len(p); i++ {
				p[i] = 0
			}
			return p
		}},
		{"ingest deadline truncated", func() []byte {
			p := encodePayload(1, IngestReq{
				Items:     []core.Item{{ID: 1, P: geom.Point{0, 0}}},
				ExpireAts: []int64{5},
			}, 2)
			return p[:len(p)-4]
		}},
		{"negative expired count", func() []byte {
			return encodePayload(1, ExpireResp{Expired: -3}, 2)
		}},
		{"negative histogram bucket", func() []byte {
			return encodePayload(1, StatsResp{Kinds: []KindLatency{
				{Kind: "knn", Max: 8, Buckets: []HistBucket{{Low: 4, Count: -1}}},
			}}, 2)
		}},
		{"stats name truncated", func() []byte {
			p := encodePayload(1, StatsResp{Kinds: []KindLatency{
				{Kind: "lookup", Max: 8, Buckets: nil},
			}}, 2)
			return p[:len(p)-6]
		}},
		{"oversized snapshot cell id", func() []byte {
			return encodePayload(1, CellSnapshotReq{Cell: 1 << 21, Box: infBox(2)}, 2)
		}},
		{"inverted snapshot cell box", func() []byte {
			return encodePayload(1, CellSnapshotReq{Cell: 0, Box: geom.Box{
				Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0},
			}}, 2)
		}},
		{"snapshot page exceeds total", func() []byte {
			return encodePayload(1, CellSnapshotResp{
				Total:     0,
				Items:     []core.Item{{ID: 1, P: geom.Point{0, 0}}},
				ExpireAts: []int64{5},
			}, 2)
		}},
		{"snapshot orphan truncated", func() []byte {
			p := encodePayload(1, CellSnapshotResp{
				Total:     1,
				Items:     []core.Item{{ID: 1, P: geom.Point{0, 0}}},
				ExpireAts: []int64{5},
				Orphans:   []core.Item{{ID: 2, P: geom.Point{1, 1}}},
				OrphanAts: []int64{9},
			}, 2)
			return p[:len(p)-4]
		}},
		{"resync started byte", func() []byte {
			p := encodePayload(1, ResyncResp{Started: true}, 2)
			p[9] = 2
			return p
		}},
		{"resync evidenced byte", func() []byte {
			p := encodePayload(1, ResyncReq{Evidenced: true}, 2)
			p[9] = 2
			return p
		}},
		{"resync evidenced truncated", func() []byte {
			p := encodePayload(1, ResyncReq{}, 2)
			return p[:len(p)-1]
		}},
		{"inverted aggcells cell box", func() []byte {
			return encodePayload(1, AggCellsReq{Box: infBox(2), Cells: []geom.Box{
				{Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0}},
			}}, 2)
		}},
		{"oversized checksum cell id", func() []byte {
			return encodePayload(1, CellChecksumReq{
				Cells: []int{1 << 21},
				Boxes: []geom.Box{infBox(2)},
			}, 2)
		}},
		{"inverted checksum cell box", func() []byte {
			return encodePayload(1, CellChecksumReq{
				Cells: []int{0},
				Boxes: []geom.Box{{Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0}}},
			}, 2)
		}},
		{"checksum sums truncated", func() []byte {
			p := encodePayload(1, CellChecksumResp{Sums: []CellChecksum{
				{Count: 7, Digest: 0x1234},
			}}, 2)
			return p[:len(p)-4]
		}},
		{"zero migrate begin epoch", func() []byte {
			return encodePayload(1, MigrateBegin{Epoch: 0, Cell: 1, Box: infBox(2), Source: "a:1"}, 2)
		}},
		{"zero migrate commit epoch", func() []byte {
			return encodePayload(1, MigrateCommit{Epoch: 0, Cell: 1}, 2)
		}},
		{"oversized migrate cell id", func() []byte {
			return encodePayload(1, MigrateBegin{Epoch: 1, Cell: 1 << 21, Box: infBox(2)}, 2)
		}},
		{"inverted migrate box", func() []byte {
			return encodePayload(1, MigrateBegin{Epoch: 1, Cell: 1, Box: geom.Box{
				Lo: geom.Point{1, 1}, Hi: geom.Point{0, 0},
			}}, 2)
		}},
		{"migrate source longer than the body", func() []byte {
			p := encodePayload(1, MigrateBegin{Epoch: 1, Cell: 1, Box: infBox(2), Source: "127.0.0.1:9291"}, 2)
			// The source's length is the uint32 after type, reqID, epoch,
			// cell and the box's four float64s.
			p[1+8+8+4+32] = 0xff
			return p
		}},
		{"migrate source truncated", func() []byte {
			p := encodePayload(1, MigrateBegin{Epoch: 1, Cell: 1, Box: infBox(2), Source: "127.0.0.1:9291", PageSize: 64}, 2)
			return p[:len(p)-6]
		}},
		{"migrate op delete byte", func() []byte {
			p := encodePayload(1, MigrateCommit{Epoch: 1, Cell: 1, Ops: []MigrateOp{
				{Delete: true, Item: core.Item{ID: 1, P: geom.Point{0, 0}}, ExpireAt: UntrackedDeadline},
			}}, 2)
			// The op's delete flag is the first byte of the last op record:
			// flag u8, item (id u32 + priority u64 + point 2*u64), at u64.
			p[len(p)-37] = 2
			return p
		}},
		{"migrate ops truncated", func() []byte {
			p := encodePayload(1, MigrateCommit{Epoch: 1, Cell: 1, Ops: []MigrateOp{
				{Item: core.Item{ID: 1, P: geom.Point{0, 0}}, ExpireAt: 5},
			}}, 2)
			return p[:len(p)-4]
		}},
		{"migrate resp changed byte", func() []byte {
			p := encodePayload(1, MigrateResp{Staged: 7, Changed: true}, 2)
			p[len(p)-1] = 2
			return p
		}},
		{"migrate resp staged truncated", func() []byte {
			p := encodePayload(1, MigrateResp{Staged: 7}, 2)
			return p[:len(p)-3]
		}},
		{"empty payload", func() []byte { return nil }},
	} {
		if _, _, err := DecodePayload(tc.mut(), 2); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want ErrWire", tc.name, err)
		}
	}
}

func TestRemoteErrorRetryable(t *testing.T) {
	for code, want := range map[uint16]bool{
		CodeUnavailable: true,
		CodeNotReady:    true,
		CodeInternal:    false,
		CodeBadRequest:  false,
	} {
		e := &RemoteError{Code: code}
		if e.Retryable() != want {
			t.Errorf("code %d retryable = %v, want %v", code, e.Retryable(), want)
		}
	}
}

// TestWireSmallerThanJSON pins the point of the binary protocol: a kNN
// response frame must be well under half its JSON equivalent.
func TestWireSmallerThanJSON(t *testing.T) {
	cands := make([]heapx.Candidate, 16)
	for i := range cands {
		cands[i] = heapx.Candidate{
			Dist2: float64(i) * 0.1234567890123,
			ID:    int32(i * 1000),
			P:     geom.Point{float64(i) * 0.7071067811865476, float64(i) * 0.5403023058681398},
		}
	}
	frame := EncodeFrame(1, KNNResp{Results: [][]heapx.Candidate{cands}}, 2)
	// A conservative JSON rendering of the same data (v2 candidates carry
	// the point's coordinates so routers can re-derive cell ownership).
	jsonLen := len(`{"results":[[`) +
		16*len(`{"id":15000,"dist2":1.8518518351845,"p":[10.606601717798213,8.104534588022097]},`)
	if len(frame)*2 >= jsonLen {
		t.Fatalf("binary frame %d bytes, JSON ≈ %d: expected > 2× saving", len(frame), jsonLen)
	}
}
