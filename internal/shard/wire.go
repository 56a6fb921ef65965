package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/mathx"
)

// Wire protocol, little-endian. The inter-node path replaces JSON-over-HTTP
// with the same framing discipline as internal/persist's WAL: length-
// prefixed, CRC-checked, versioned, with a decoder that never panics on
// arbitrary input (it is a fuzz target).
//
//	handshake (server → client on accept, 16 bytes):
//	    magic    "PKDSHRD1"  (8 bytes)
//	    version  uint16      (wireVersion)
//	    dim      uint16
//	    crc32    uint32      (IEEE, of the 4 bytes version+dim)
//	frames (both directions, back to back):
//	    length   uint32      (payload bytes, <= maxFramePayload)
//	    crc32    uint32      (IEEE, of payload)
//	    payload:
//	        type  uint8
//	        reqID uint64     (echoed verbatim in the response frame)
//	        body  (per message type below)
//
// Message bodies: each message's layout is its walk method below (the one
// statement both directions run), over the codec's primitives — fixed-width
// little-endian integers, float64 bit patterns, one-byte flags, uint32-counted
// lists, and
//
//	point       dim × float64
//	box         lo point, hi point
//	item        id int32, priority float64, point
//	timed item  item, expireAt int64 (MinInt64 = not expiry-tracked)
//
// Version history: v2 added replication — pong sync state, per-candidate
// coordinates in knnResp (the router filters merged candidates by cell
// ownership), and the cellSnap/resync/aggCells messages. v3 added the
// resyncReq evidenced byte (whether the router saw the shard miss an
// acked write, or is fencing a revival purely as a precaution). v4 added
// the cellSum messages for the router's anti-entropy sweep. v5 added the
// migBegin/migPage/migCommit stream for the online rebalancer's live cell
// migration (staged exact-set with ledger replay, conn-scoped like the
// cellSnap stash). v6 made the stage a pull: migBegin names the source
// shard's address and page size and the destination pages the cut itself
// over cellSnap frames, so migPage is gone (its type byte stays unused),
// migCommit no longer carries the cut's orphans, and migResp reports how
// many items the stage holds.
const (
	wireMagic   = "PKDSHRD1"
	wireVersion = 6
	// handshakeSize is the byte length of the connection header.
	handshakeSize = 16
	// maxFramePayload bounds one frame so a corrupted length field cannot
	// drive a huge allocation.
	maxFramePayload = 1 << 26
)

// Message type bytes.
const (
	msgPing       byte = 0x01
	msgPong       byte = 0x02
	msgKNNReq     byte = 0x10
	msgKNNResp    byte = 0x11
	msgRangeReq   byte = 0x12
	msgRangeResp  byte = 0x13
	msgInsertReq  byte = 0x14
	msgDeleteReq  byte = 0x15
	msgUpdateResp byte = 0x16
	msgJoinReq    byte = 0x17
	msgAggReq     byte = 0x18
	msgAggResp    byte = 0x19
	msgIngestReq  byte = 0x1a
	msgExpireReq  byte = 0x1b
	msgExpireResp byte = 0x1c
	msgStatsReq   byte = 0x1d
	msgStatsResp  byte = 0x1e
	msgErr        byte = 0x1f
	// v2 replication messages.
	msgCellSnapReq  byte = 0x20
	msgCellSnapResp byte = 0x21
	msgResyncReq    byte = 0x22
	msgResyncResp   byte = 0x23
	msgAggCellsReq  byte = 0x24
	// v4 anti-entropy messages.
	msgCellSumReq  byte = 0x25
	msgCellSumResp byte = 0x26
	// v5 online-rebalance migration messages (0x28 was v5's migPage).
	msgMigBeginReq  byte = 0x27
	msgMigCommitReq byte = 0x29
	msgMigResp      byte = 0x2a
)

// ErrWire marks a malformed handshake or frame (bad magic, version, CRC, or
// structure). A conn surfacing it is poisoned and must be closed.
var ErrWire = errors.New("shard: wire protocol error")

// Remote error codes carried by errResp frames.
const (
	// CodeUnavailable is a retryable condition: the shard is overloaded,
	// draining, or the batch hit a transient fault.
	CodeUnavailable uint16 = 1
	// CodeInternal is a shard-side bug (batch panic, persistence failure).
	CodeInternal uint16 = 2
	// CodeBadRequest is a structurally valid frame the shard refuses
	// (dimension mismatch, k < 1).
	CodeBadRequest uint16 = 3
	// CodeNotReady is a shard still replaying its WAL.
	CodeNotReady uint16 = 4
)

// Ping asks a shard for its status.
type Ping struct{}

// Pong is the status reply: readiness, the shard's live point count, and
// its replication sync state. Synced is the shard's own claim to hold every
// acked write of its hosted cells; SyncGen increments each time a rebuild
// or resync convergence pass completes, so a router that fenced the shard
// as stale can tell a *new* sync (gen changed — safe to reinstate) from the
// shard merely still believing its pre-fence state (gen unchanged — nudge
// it with a ResyncReq).
type Pong struct {
	Ready   bool
	Size    int64
	Synced  bool
	SyncGen uint64
}

// KNNReq asks for each query point's k nearest neighbors.
type KNNReq struct {
	K      int
	Points []geom.Point
}

// KNNResp carries per-query candidates in canonical (dist2, id) order.
// Each candidate carries its coordinates so the router can attribute it to
// a partition cell and keep exactly one reporting replica per cell.
type KNNResp struct {
	Results [][]heapx.Candidate
}

// RangeReq asks for the items inside each box.
type RangeReq struct {
	Boxes []geom.Box
}

// RangeResp carries per-box item lists.
type RangeResp struct {
	Results [][]core.Item
}

// UpdateReq applies a batch of inserts (or deletes) to the shard.
type UpdateReq struct {
	Delete bool
	Items  []core.Item
}

// UpdateResp acknowledges an applied update batch.
type UpdateResp struct {
	Applied int
}

// JoinReq asks, per probe point, for the shard's items within the radius.
// The shard answers with a RangeResp (per-probe item lists in canonical
// order).
type JoinReq struct {
	Radius float64
	Points []geom.Point
}

// AggReq asks for a windowed aggregate (count + exact coordinate sums) over
// each box.
type AggReq struct {
	Boxes []geom.Box
}

// AggResp carries per-box partial aggregates. Sums travel in ExactSum's
// sparse word form, so merging partials on the router is bit-identical to a
// single-tree aggregation.
type AggResp struct {
	Results []core.BoxAggregate
}

// IngestReq applies a batch of streaming inserts, each with a logical
// expiry deadline (parallel slices). The shard answers with an UpdateResp.
type IngestReq struct {
	Items     []core.Item
	ExpireAts []int64
}

// ExpireReq sweeps every ingested item whose deadline is at or before Now.
type ExpireReq struct {
	Now int64
}

// ExpireResp reports how many items the sweep deleted.
type ExpireResp struct {
	Expired int64
}

// StatsReq asks the shard for its per-kind latency histograms.
type StatsReq struct{}

// HistBucket is one nonzero histogram bucket in sparse wire form.
type HistBucket struct {
	Low   int64
	Count int64
}

// KindLatency is one request kind's latency histogram. Reconstructing with
// hist.RecordN(Low, Count) per bucket plus ObserveMax(Max) yields
// quantile-identical histograms on the router side.
type KindLatency struct {
	Kind    string
	Max     int64
	Buckets []HistBucket
}

// StatsResp carries the shard's per-kind latency histograms, sorted by
// kind name.
type StatsResp struct {
	Kinds []KindLatency
}

// CellSnapshotReq asks a peer replica for one page of a cell's contents:
// the canonically sorted multiset of the peer's items owned by the
// half-open cell box, sliced at [Offset, Offset+Limit). Limit 0 means
// everything from Offset. Pagination makes a rebuild stream resumable: a
// destination restarts a cell (cheap) rather than the whole transfer.
type CellSnapshotReq struct {
	Cell   int
	Box    geom.Box
	Offset uint64
	Limit  int
}

// UntrackedDeadline is the CellSnapshotResp sentinel for an item with no
// TTL entry (inserted via the plain update path, not ingest).
const UntrackedDeadline = math.MinInt64

// CellSnapshotResp is one page of a cell snapshot. Total is the cell's
// item count at the moment the page was cut; a Total that changes between
// pages tells the puller the cell moved underneath it and the cell must be
// re-pulled. ExpireAts parallels Items (UntrackedDeadline = no TTL), so a
// rebuilt replica reproduces the source's expiry heap exactly and later
// Expire sweeps stay bit-identical across replicas.
//
// Orphans/OrphanAts (present only on the final page) are expiry entries
// with no matching live item — a plain delete removes the item but not its
// TTL entry, and an Expire sweep still pops (and counts) the entry later.
// Replicas must agree on these too or post-rebuild sweep counts would
// diverge across replicas.
type CellSnapshotResp struct {
	Total     uint64
	Items     []core.Item
	ExpireAts []int64
	Orphans   []core.Item
	OrphanAts []int64
}

// ResyncReq nudges a shard that the router believes missed acked writes
// (it is fenced as stale) to run another peer-rebuild convergence pass.
// The shard answers whether it started (or already had) a pass; its
// SyncGen will change when the pass completes.
//
// Evidenced tells the shard *why* it is fenced. True means the router
// watched this shard miss a write another replica acked — the shard must
// not claim sync again until a convergence pass actually pulled its cells
// from an eligible peer, no matter how long that takes. False means the
// fence is precautionary (the shard revived after being routed around and
// nothing is known to be missing): if no eligible peer appears within the
// shard's patience window, its own durable state is authoritative and the
// pass may complete against it — that keeps a revival after total peer
// loss from fencing the cluster forever, and it is safe because any write
// acked while the shard was away would have fenced it evidenced at ack
// time.
type ResyncReq struct {
	Evidenced bool
}

// ResyncResp acknowledges a resync nudge. Target is the sync generation
// that proves a convergence pass begun *after* this nudge has completed:
// the shard computes it as its current generation, plus one for a pass
// already in flight (which may predate the write the router saw the shard
// miss), plus one for the nudged pass itself. The router must keep the
// shard fenced until its pong generation reaches Target — an earlier
// generation could come from a pass that started before the miss.
type ResyncResp struct {
	Started bool
	Target  uint64
}

// AggCellsReq asks for one windowed aggregate over Box restricted to the
// union of the given half-open cells — the replication-aware form of
// AggReq: the router assigns each intersecting cell to exactly one
// replica, so summing the per-shard partials counts every stored item
// exactly once. Answered by an AggResp with a single result.
type AggCellsReq struct {
	Box   geom.Box
	Cells []geom.Box
}

// CellChecksumReq asks a replica for one checksum per listed cell — the
// router's anti-entropy probe. Cells and Boxes are parallel (Boxes[i] is
// the half-open box of cell Cells[i]); sending the box keeps the shard
// free of partition geometry, exactly as CellSnapshotReq does.
type CellChecksumReq struct {
	Cells []int
	Boxes []geom.Box
}

// CellChecksum summarizes one replica's replication state for one cell:
// the live item count plus an order-independent 64-bit digest over the
// cell's full replicated state (items with their coordinate/priority bits
// and expiry deadlines, and orphaned expiry entries). Two replicas with
// equal checksums hold, up to a ~2⁻⁶⁴ digest collision, cell states a
// RestoreCell between them would not change.
type CellChecksum struct {
	Count  uint64
	Digest uint64
}

// CellChecksumResp carries the per-cell checksums, in request order.
type CellChecksumResp struct {
	Sums []CellChecksum
}

// MigrateBegin stages a migration on the receiving connection: the
// destination pulls the half-open Box from the shard at wire address
// Source, PageSize items per CellSnapshot page, over one consistent cut,
// and holds it on the conn until MigrateCommit applies it. An empty Source
// stages the empty set (a stray purge). Cell names the cut on both ends
// (the source uses it only to match its pages). Epoch is the placement
// epoch the rebalancer is building (epochs start at 1; 0 is malformed).
// The stage is conn-scoped exactly like the cell-snapshot stash: dropping
// the conn discards it, so a torn migration applies nothing.
type MigrateBegin struct {
	Epoch    uint64
	Cell     int
	Box      geom.Box
	Source   string
	PageSize int
}

// MigrateOp is one write that raced the migration cut: an insert (or
// TTL-tracked ingest) or a delete of one item in the moving region,
// recorded by the router in ack order from the moment its ledger opened.
// ExpireAt is the ingest deadline (UntrackedDeadline for plain inserts and
// for deletes).
type MigrateOp struct {
	Delete   bool
	Item     core.Item
	ExpireAt int64
}

// MigrateCommit atomically completes the stage opened by MigrateBegin on
// this conn: the shard replays Ops (in order) on top of the staged cut,
// then exact-sets the cell box to the result — the same one-batch
// multiset-diff apply as a peer-rebuild RestoreCell, so commit is all or
// nothing and idempotent.
type MigrateCommit struct {
	Epoch uint64
	Cell  int
	Ops   []MigrateOp
}

// MigrateResp acknowledges a MigrateBegin or MigrateCommit. On a begin,
// Staged is how many items the stage holds; on a commit, Changed is
// whether applying the staged state changed the shard's local cell
// contents (a no-op commit proves the destination already held the exact
// set).
type MigrateResp struct {
	Staged  uint64
	Changed bool
}

// RemoteError is a shard-side failure relayed over the wire.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("shard: remote error code=%d: %s", e.Code, e.Msg)
}

// Retryable reports whether the condition is transient: the shard is
// overloaded or not ready, so a client may retry later. The HTTP front-end
// maps it to 503 with Retry-After.
func (e *RemoteError) Retryable() bool { return e.Code == CodeUnavailable || e.Code == CodeNotReady }

// WriteHandshake writes the connection header declaring the shard's
// dimension.
func WriteHandshake(w io.Writer, dim int) error {
	if dim < 1 || dim > 1<<16-1 {
		return fmt.Errorf("shard: handshake dimension %d out of range", dim)
	}
	buf := make([]byte, 0, handshakeSize)
	buf = append(buf, wireMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dim))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[8:12]))
	_, err := w.Write(buf)
	return err
}

// ReadHandshake reads and validates the connection header, returning the
// peer's declared dimension.
func ReadHandshake(r io.Reader) (dim int, err error) {
	buf := make([]byte, handshakeSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	return DecodeHandshake(buf)
}

// DecodeHandshake validates a handshake image.
func DecodeHandshake(buf []byte) (dim int, err error) {
	if len(buf) < handshakeSize {
		return 0, fmt.Errorf("%w: handshake %d bytes, want %d", ErrWire, len(buf), handshakeSize)
	}
	if string(buf[:8]) != wireMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrWire)
	}
	if got, want := crc32.ChecksumIEEE(buf[8:12]), binary.LittleEndian.Uint32(buf[12:16]); got != want {
		return 0, fmt.Errorf("%w: handshake CRC %08x, want %08x", ErrWire, got, want)
	}
	if v := binary.LittleEndian.Uint16(buf[8:10]); v != wireVersion {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrWire, v, wireVersion)
	}
	dim = int(binary.LittleEndian.Uint16(buf[10:12]))
	if dim < 1 {
		return 0, fmt.Errorf("%w: impossible dimension %d", ErrWire, dim)
	}
	return dim, nil
}

// frameHeader is the length + CRC prefix of every frame; payloadHeader the
// type byte + request ID that open every payload.
const (
	frameHeader   = 8
	payloadHeader = 9
)

// EncodeFrame frames a message for the wire: length + CRC + payload.
// It panics on unknown message types (a programming error, not input).
func EncodeFrame(reqID uint64, m any, dim int) []byte {
	e, ok := m.(encoder)
	if !ok {
		panic(fmt.Sprintf("shard: EncodeFrame of unknown message type %T", m))
	}
	frame, t := e.put(codec{buf: make([]byte, frameHeader+payloadHeader, 64), dim: dim})
	payload := frame[frameHeader:]
	payload[0] = t
	binary.LittleEndian.PutUint64(payload[1:], reqID)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame
}

// encoder is every message's encode entry: put walks the message's body
// onto the codec and names its type byte. The codec travels by value, here
// and through the decode table, so it never leaves the stack.
type encoder interface {
	put(codec) ([]byte, byte)
}

// decoders maps a type byte to the function that walks that message's body
// off the wire; a nil entry is an unknown type. Insert and delete requests
// share UpdateReq: the type byte is the Delete flag.
var decoders = [256]func(codec) (any, error){
	msgPing:         func(c codec) (any, error) { return Ping{}, c.end() },
	msgPong:         func(c codec) (any, error) { var m Pong; m.walk(&c); return m, c.end() },
	msgKNNReq:       func(c codec) (any, error) { var m KNNReq; m.walk(&c); return m, c.end() },
	msgKNNResp:      func(c codec) (any, error) { var m KNNResp; m.walk(&c); return m, c.end() },
	msgRangeReq:     func(c codec) (any, error) { var m RangeReq; m.walk(&c); return m, c.end() },
	msgRangeResp:    func(c codec) (any, error) { var m RangeResp; m.walk(&c); return m, c.end() },
	msgInsertReq:    func(c codec) (any, error) { var m UpdateReq; m.walk(&c); return m, c.end() },
	msgDeleteReq:    func(c codec) (any, error) { m := UpdateReq{Delete: true}; m.walk(&c); return m, c.end() },
	msgUpdateResp:   func(c codec) (any, error) { var m UpdateResp; m.walk(&c); return m, c.end() },
	msgJoinReq:      func(c codec) (any, error) { var m JoinReq; m.walk(&c); return m, c.end() },
	msgAggReq:       func(c codec) (any, error) { var m AggReq; m.walk(&c); return m, c.end() },
	msgAggResp:      func(c codec) (any, error) { var m AggResp; m.walk(&c); return m, c.end() },
	msgIngestReq:    func(c codec) (any, error) { var m IngestReq; m.walk(&c); return m, c.end() },
	msgExpireReq:    func(c codec) (any, error) { var m ExpireReq; m.walk(&c); return m, c.end() },
	msgExpireResp:   func(c codec) (any, error) { var m ExpireResp; m.walk(&c); return m, c.end() },
	msgStatsReq:     func(c codec) (any, error) { return StatsReq{}, c.end() },
	msgStatsResp:    func(c codec) (any, error) { var m StatsResp; m.walk(&c); return m, c.end() },
	msgErr:          func(c codec) (any, error) { m := new(RemoteError); m.walk(&c); return m, c.end() },
	msgCellSnapReq:  func(c codec) (any, error) { var m CellSnapshotReq; m.walk(&c); return m, c.end() },
	msgCellSnapResp: func(c codec) (any, error) { var m CellSnapshotResp; m.walk(&c); return m, c.end() },
	msgResyncReq:    func(c codec) (any, error) { var m ResyncReq; m.walk(&c); return m, c.end() },
	msgResyncResp:   func(c codec) (any, error) { var m ResyncResp; m.walk(&c); return m, c.end() },
	msgAggCellsReq:  func(c codec) (any, error) { var m AggCellsReq; m.walk(&c); return m, c.end() },
	msgCellSumReq:   func(c codec) (any, error) { var m CellChecksumReq; m.walk(&c); return m, c.end() },
	msgCellSumResp:  func(c codec) (any, error) { var m CellChecksumResp; m.walk(&c); return m, c.end() },
	msgMigBeginReq:  func(c codec) (any, error) { var m MigrateBegin; m.walk(&c); return m, c.end() },
	msgMigCommitReq: func(c codec) (any, error) { var m MigrateCommit; m.walk(&c); return m, c.end() },
	msgMigResp:      func(c codec) (any, error) { var m MigrateResp; m.walk(&c); return m, c.end() },
}

// ReadFrame reads one length-prefixed frame and returns its CRC-validated
// payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	if length > maxFramePayload {
		return nil, fmt.Errorf("%w: frame payload %d bytes exceeds cap %d", ErrWire, length, maxFramePayload)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: frame CRC %08x, want %08x", ErrWire, got, want)
	}
	return payload, nil
}

// DecodePayload parses a CRC-validated frame payload for a connection of
// the given dimension. It returns the echoed request ID and one of the
// typed messages above. DecodePayload never panics on arbitrary input.
func DecodePayload(payload []byte, dim int) (reqID uint64, m any, err error) {
	if dim < 1 || dim > 1<<16-1 {
		return 0, nil, fmt.Errorf("%w: impossible dimension %d", ErrWire, dim)
	}
	if len(payload) < payloadHeader {
		return 0, nil, fmt.Errorf("%w: payload %d bytes, want >= %d", ErrWire, len(payload), payloadHeader)
	}
	t := payload[0]
	reqID = binary.LittleEndian.Uint64(payload[1:payloadHeader])
	decode := decoders[t]
	if decode == nil {
		return reqID, nil, fmt.Errorf("%w: unknown message type 0x%02x", ErrWire, t)
	}
	m, err = decode(codec{buf: payload[payloadHeader:], dec: true, dim: dim})
	if err != nil {
		return reqID, nil, err
	}
	return reqID, m, nil
}

// Message walks. Each message states its body layout exactly once, as a
// walk over the codec's primitives: the same statements append the fields
// when encoding and read-and-check them when decoding, so the two directions
// cannot drift and every validity rule lives beside the field it guards.

func (Ping) put(c codec) ([]byte, byte)     { return c.buf, msgPing }
func (StatsReq) put(c codec) ([]byte, byte) { return c.buf, msgStatsReq }

func (m Pong) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgPong }
func (m *Pong) walk(c *codec) {
	c.flag(&m.Ready)
	c.i64(&m.Size)
	c.flag(&m.Synced)
	c.u64(&m.SyncGen)
}

func (m KNNReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgKNNReq }
func (m *KNNReq) walk(c *codec) {
	c.int(&m.K)
	c.points(&m.Points)
	if c.dec && (m.K < 1 || m.K > 1<<20) {
		c.fail("knn k=%d out of range", m.K)
	}
}

func (m KNNResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgKNNResp }
func (m *KNNResp) walk(c *codec) {
	for i := range seq(c, &m.Results, 4) {
		for j := range seq(c, &m.Results[i], 12+8*c.dim) {
			x := &m.Results[i][j]
			c.i32(&x.ID)
			c.f64(&x.Dist2)
			c.point(&x.P)
		}
	}
}

func (m RangeReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgRangeReq }
func (m *RangeReq) walk(c *codec)             { c.boxes(&m.Boxes) }

func (m RangeResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgRangeResp }
func (m *RangeResp) walk(c *codec) {
	for i := range seq(c, &m.Results, 4) {
		c.items(&m.Results[i])
	}
}

func (m UpdateReq) put(c codec) ([]byte, byte) {
	m.walk(&c)
	if m.Delete {
		return c.buf, msgDeleteReq
	}
	return c.buf, msgInsertReq
}
func (m *UpdateReq) walk(c *codec) { c.items(&m.Items) }

func (m UpdateResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgUpdateResp }
func (m *UpdateResp) walk(c *codec)             { c.int(&m.Applied) }

func (m JoinReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgJoinReq }
func (m *JoinReq) walk(c *codec) {
	c.f64(&m.Radius)
	if c.dec && (math.IsNaN(m.Radius) || math.IsInf(m.Radius, 0) || m.Radius < 0) {
		c.fail("join radius %v out of range", m.Radius)
	}
	c.points(&m.Points)
}

func (m AggReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgAggReq }
func (m *AggReq) walk(c *codec)             { c.boxes(&m.Boxes) }

func (m AggResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgAggResp }
func (m *AggResp) walk(c *codec) {
	for i := range seq(c, &m.Results, 8+3*c.dim) {
		a := &m.Results[i]
		c.nonneg(&a.Count, "aggregate count")
		if c.dec && c.err == nil {
			a.Sums = make([]mathx.ExactSum, c.dim)
		}
		for d := range a.Sums {
			c.exactSum(&a.Sums[d])
		}
	}
}

func (m IngestReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgIngestReq }
func (m *IngestReq) walk(c *codec)             { c.timedItems(&m.Items, &m.ExpireAts) }

func (m ExpireReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgExpireReq }
func (m *ExpireReq) walk(c *codec)             { c.i64(&m.Now) }

func (m ExpireResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgExpireResp }
func (m *ExpireResp) walk(c *codec)             { c.nonneg(&m.Expired, "expired count") }

func (m StatsResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgStatsResp }
func (m *StatsResp) walk(c *codec) {
	for i := range seq(c, &m.Kinds, 13) {
		k := &m.Kinds[i]
		n := uint8(len(k.Kind))
		c.u8(&n)
		c.str(&k.Kind, int(n))
		c.nonneg(&k.Max, "histogram max")
		for j := range seq(c, &k.Buckets, 16) {
			c.nonneg(&k.Buckets[j].Low, "histogram bucket")
			c.nonneg(&k.Buckets[j].Count, "histogram bucket")
		}
	}
}

func (m *RemoteError) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgErr }
func (m *RemoteError) walk(c *codec) {
	c.u16(&m.Code)
	c.str(&m.Msg, c.count(len(m.Msg), 1))
}

func (m CellSnapshotReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgCellSnapReq }
func (m *CellSnapshotReq) walk(c *codec) {
	c.cell(&m.Cell)
	c.box(&m.Box)
	c.u64(&m.Offset)
	c.int(&m.Limit)
}

func (m CellSnapshotResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgCellSnapResp }
func (m *CellSnapshotResp) walk(c *codec) {
	c.u64(&m.Total)
	c.timedItems(&m.Items, &m.ExpireAts)
	c.timedItems(&m.Orphans, &m.OrphanAts)
	if c.dec && uint64(len(m.Items)) > m.Total {
		c.fail("snapshot page %d items exceeds total %d", len(m.Items), m.Total)
	}
}

func (m ResyncReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgResyncReq }
func (m *ResyncReq) walk(c *codec)             { c.flag(&m.Evidenced) }

func (m ResyncResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgResyncResp }
func (m *ResyncResp) walk(c *codec) {
	c.flag(&m.Started)
	c.u64(&m.Target)
}

func (m AggCellsReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgAggCellsReq }
func (m *AggCellsReq) walk(c *codec) {
	c.box(&m.Box)
	c.boxes(&m.Cells)
}

// Cells and Boxes travel interleaved, one (cell, box) record per entry.
func (m CellChecksumReq) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgCellSumReq }
func (m *CellChecksumReq) walk(c *codec) {
	n := len(seq(c, &m.Cells, 4+16*c.dim))
	if c.dec {
		m.Boxes = make([]geom.Box, n)
	}
	for i := range m.Cells {
		c.cell(&m.Cells[i])
		c.box(&m.Boxes[i])
	}
}

func (m CellChecksumResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgCellSumResp }
func (m *CellChecksumResp) walk(c *codec) {
	for i := range seq(c, &m.Sums, 16) {
		c.u64(&m.Sums[i].Count)
		c.u64(&m.Sums[i].Digest)
	}
}

func (m MigrateBegin) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgMigBeginReq }
func (m *MigrateBegin) walk(c *codec) {
	c.epoch(&m.Epoch)
	c.cell(&m.Cell)
	c.box(&m.Box)
	c.str(&m.Source, c.count(len(m.Source), 1))
	c.int(&m.PageSize)
}

func (m MigrateCommit) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgMigCommitReq }
func (m *MigrateCommit) walk(c *codec) {
	c.epoch(&m.Epoch)
	c.cell(&m.Cell)
	for i := range seq(c, &m.Ops, c.itemSize()+9) {
		op := &m.Ops[i]
		c.flag(&op.Delete)
		c.item(&op.Item)
		c.i64(&op.ExpireAt)
	}
}

func (m MigrateResp) put(c codec) ([]byte, byte) { m.walk(&c); return c.buf, msgMigResp }
func (m *MigrateResp) walk(c *codec) {
	c.u64(&m.Staged)
	c.flag(&m.Changed)
}

// codec is the bidirectional cursor the walks run over. Encoding (dec
// false) every primitive appends its field to buf and nothing can fail.
// Decoding, buf is the message body and off the read position: every
// primitive reads its field, checks it, records the first error in err and
// from then on no-ops leaving zero values behind — so walks read
// straight-line without per-field error plumbing, never index past the input
// and never allocate for a count the remaining bytes cannot back. Validity
// rules are decode-only: the encoder writes what it is given.
type codec struct {
	buf []byte
	off int
	dec bool
	dim int
	err error
}

// fail records the first decode error.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
	}
}

// end closes a decode: the first error, or unread bytes after the message.
func (c *codec) end() error {
	if c.left() != 0 {
		c.fail("%d trailing bytes after the message", c.left())
	}
	return c.err
}

// take consumes the next n body bytes (decode only); nil after any error.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.left() < n {
		c.fail("truncated body (want %d more bytes, have %d)", n, c.left())
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// left is the unread body length (decode only).
func (c *codec) left() int { return len(c.buf) - c.off }

// The fixed-width primitives. Encoding only ever reads the message — a
// router fans one request's slices out to several replicas at once. The
// encode half appends to c.buf in place (not through
// binary.LittleEndian.AppendUintN, which returns a fresh slice header): an
// in-place append that does not grow stores only the new length, so the hot
// path writes no pointer and pays no GC write barrier.

func (c *codec) u8(v *uint8) {
	if c.dec {
		*v = uint8(c.get(1))
	} else {
		c.buf = append(c.buf, *v)
	}
}

func (c *codec) u16(v *uint16) {
	if c.dec {
		*v = uint16(c.get(2))
	} else {
		c.buf = append(c.buf, byte(*v), byte(*v>>8))
	}
}

func (c *codec) u32(v *uint32) {
	if c.dec {
		*v = uint32(c.get(4))
	} else {
		c.put32(*v)
	}
}

func (c *codec) u64(v *uint64) {
	if c.dec {
		*v = c.get(8)
	} else {
		c.put64(*v)
	}
}

func (c *codec) put32(v uint32) {
	c.buf = append(c.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (c *codec) put64(v uint64) {
	c.buf = append(c.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// get reads an n-byte little-endian unsigned integer; 0 after any error.
func (c *codec) get(n int) uint64 {
	switch b := c.take(n); len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *codec) i32(v *int32) {
	if c.dec {
		*v = int32(c.get(4))
	} else {
		c.put32(uint32(*v))
	}
}

// int is a non-negative int field that travels as a uint32.
func (c *codec) int(v *int) {
	if c.dec {
		*v = int(c.get(4))
	} else {
		c.put32(uint32(*v))
	}
}

func (c *codec) i64(v *int64) {
	if c.dec {
		*v = int64(c.get(8))
	} else {
		c.put64(uint64(*v))
	}
}

func (c *codec) f64(v *float64) {
	if c.dec {
		*v = math.Float64frombits(c.get(8))
	} else {
		c.put64(math.Float64bits(*v))
	}
}

// flag is a bool as one byte; any value but 0 or 1 is malformed.
func (c *codec) flag(v *bool) {
	if c.dec {
		b := c.get(1)
		if b > 1 {
			c.fail("flag byte %d", b)
		}
		*v = b == 1
	} else if *v {
		c.buf = append(c.buf, 1)
	} else {
		c.buf = append(c.buf, 0)
	}
}

// nonneg is an int64 count or bound that must not decode negative.
func (c *codec) nonneg(v *int64, what string) {
	c.i64(v)
	if c.dec && *v < 0 {
		c.fail("negative %s", what)
	}
}

// cell is a partition cell id: uint32 on the wire, at most 1<<20.
func (c *codec) cell(v *int) {
	c.int(v)
	if c.dec && *v > 1<<20 {
		c.fail("cell id %d out of range", *v)
	}
}

// epoch is a placement epoch; epochs start at 1, so 0 is malformed.
func (c *codec) epoch(v *uint64) {
	c.u64(v)
	if c.dec && *v == 0 {
		c.fail("migration epoch 0 (epochs start at 1)")
	}
}

// count walks a uint32 element count. elemSize is the fewest bytes one
// element occupies: decoding, the count is checked against the bytes
// actually remaining before the caller allocates, so a corrupted count can
// neither over-allocate nor mask trailing garbage; encoding, the same figure
// reserves the elements' room in one step.
func (c *codec) count(n, elemSize int) int {
	u := uint32(n)
	c.u32(&u)
	if !c.dec {
		c.buf = slices.Grow(c.buf, n*elemSize)
		return n
	}
	if c.err == nil && int64(u)*int64(elemSize) > int64(c.left()) {
		c.fail("count %d × %d bytes exceeds remaining %d", u, elemSize, c.left())
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// seq walks a list's uint32 count and, decoding, allocates the list; the
// caller ranges over the result to walk each element in place.
func seq[T any](c *codec, s *[]T, elemSize int) []T {
	n := c.count(len(*s), elemSize)
	if c.dec {
		*s = make([]T, n)
	}
	return *s
}

// str is n raw bytes of text; the length travels separately.
func (c *codec) str(s *string, n int) {
	if !c.dec {
		c.buf = append(c.buf, *s...)
	} else {
		*s = string(c.take(n))
	}
}

// point is dim float64 coordinates.
func (c *codec) point(p *geom.Point) {
	if !c.dec {
		for _, v := range *p {
			c.put64(math.Float64bits(v))
		}
	} else if b := c.take(8 * c.dim); b != nil {
		q := make(geom.Point, c.dim)
		for i := range q {
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		*p = q
	}
}

// box is a lo point then a hi point with lo <= hi on every axis (±Inf
// faces are legal: a partition's outer cells have them).
func (c *codec) box(b *geom.Box) {
	c.point(&b.Lo)
	c.point(&b.Hi)
	if c.dec && c.err == nil {
		for ax := range b.Lo {
			if !(b.Lo[ax] <= b.Hi[ax]) {
				c.fail("inverted or NaN box on axis %d", ax)
				return
			}
		}
	}
}

func (c *codec) points(s *[]geom.Point) {
	for i := range seq(c, s, 8*c.dim) {
		c.point(&(*s)[i])
	}
}

func (c *codec) boxes(s *[]geom.Box) {
	for i := range seq(c, s, 16*c.dim) {
		c.box(&(*s)[i])
	}
}

// itemSize is the encoded size of one item (matches the persist layout:
// id, priority, coordinates).
func (c *codec) itemSize() int { return 4 + 8 + 8*c.dim }

func (c *codec) item(it *core.Item) {
	c.i32(&it.ID)
	c.f64(&it.Priority)
	c.point(&it.P)
}

func (c *codec) items(s *[]core.Item) {
	for i := range seq(c, s, c.itemSize()) {
		c.item(&(*s)[i])
	}
}

// timedItems is a counted list of (item, expireAt int64) records held as
// parallel slices; UntrackedDeadline marks an item with no TTL entry.
func (c *codec) timedItems(items *[]core.Item, ats *[]int64) {
	n := len(seq(c, items, c.itemSize()+8))
	if c.dec {
		*ats = make([]int64, n)
	}
	for i := range *items {
		c.item(&(*items)[i])
		c.i64(&(*ats)[i])
	}
}

// exactSum travels in ExactSum's sparse word form: flags, a uint16 term
// count, then (index uint16, word uint64) terms. Canonical form only, so
// decode→encode is byte-identical: raw index strictly ascending —
// positive-accumulator words sort before negative ones because of the index
// high bit — and no zero words.
func (c *codec) exactSum(s *mathx.ExactSum) {
	var terms []mathx.SumTerm
	var flags uint8
	if !c.dec {
		terms, flags = s.Terms()
	}
	c.u8(&flags)
	n := uint16(len(terms))
	c.u16(&n)
	if c.dec {
		if 10*int(n) > c.left() {
			c.fail("%d sum terms exceed remaining %d bytes", n, c.left())
			return
		}
		terms = make([]mathx.SumTerm, n)
	}
	prev := -1
	for i := range terms {
		t := &terms[i]
		c.u16(&t.Index)
		c.u64(&t.Word)
		if c.dec && (int(t.Index) <= prev || t.Word == 0) {
			c.fail("non-canonical aggregate sum terms")
		}
		prev = int(t.Index)
	}
	if c.dec && c.err == nil {
		sum, ok := mathx.SumFromTerms(terms, flags)
		if !ok {
			c.fail("invalid aggregate sum terms")
		}
		*s = sum
	}
}
