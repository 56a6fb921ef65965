package shard

import (
	"errors"
	"fmt"
	"io"
	"math"

	"pimkd/internal/codec"
	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/mathx"
)

// Wire protocol, little-endian. The inter-node path replaces JSON-over-HTTP
// with the same frame as internal/persist's WAL — codec.Frame: length-
// prefixed, CRC-checked — plus a versioned handshake, with a decoder that
// never panics on arbitrary input (it is a fuzz target).
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
// Message bodies: each message's layout is its walk method below, over
// package codec's primitives.
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
	// draining, or the request was canceled before it ran.
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

// handshake walks the connection header.
func handshake(c *codec.Cursor, version, dim *uint16) {
	c.Magic(wireMagic)
	from := c.Pos()
	c.U16(version)
	c.U16(dim)
	c.Sum(from)
	switch {
	case !c.Dec || c.Err != nil:
	case *version != wireVersion:
		c.Fail("version %d, want %d", *version, wireVersion)
	case *dim < 1:
		c.Fail("impossible dimension %d", *dim)
	}
}

// WriteHandshake writes the connection header declaring the shard's
// dimension.
func WriteHandshake(w io.Writer, dim int) error {
	if dim < 1 || dim > 1<<16-1 {
		return fmt.Errorf("shard: handshake dimension %d out of range", dim)
	}
	c := codec.Encoder(make([]byte, 0, handshakeSize), 0)
	v, d := uint16(wireVersion), uint16(dim)
	handshake(&c, &v, &d)
	_, err := w.Write(c.Buf)
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
	c := codec.Decoder(buf, 0, ErrWire)
	var v, d uint16
	handshake(&c, &v, &d)
	return int(d), c.Err
}

// frameHeader is the length + CRC prefix of every frame; payloadHeader the
// type byte + request ID that open every payload.
const (
	frameHeader   = codec.FrameHeader
	payloadHeader = 9
)

// EncodeFrame frames a message for the wire: length + CRC + payload.
// It panics on unknown message types (a programming error, not input).
func EncodeFrame(reqID uint64, m any, dim int) []byte {
	e, ok := m.(encoder)
	if !ok {
		panic(fmt.Sprintf("shard: EncodeFrame of unknown message type %T", m))
	}
	frame, t := e.put(codec.Frame(dim, payloadHeader, 64))
	h := codec.Encoder(frame[frameHeader:frameHeader], 0) // fills the reserved payload header in place
	h.U8(&t)
	h.U64(&reqID)
	return codec.Seal(frame)
}

// encoder is every message's encode entry: put walks the message's body
// onto the cursor and names its type byte. The cursor travels by value,
// here and through the decode table, so it never leaves the stack.
type encoder interface {
	put(codec.Cursor) ([]byte, byte)
}

// decoders maps a type byte to the function that walks that message's body
// off the wire; a nil entry is an unknown type. Insert and delete requests
// share UpdateReq: the type byte is the Delete flag.
var decoders = [256]func(codec.Cursor) (any, error){
	msgPing:         func(c codec.Cursor) (any, error) { return Ping{}, c.End() },
	msgPong:         func(c codec.Cursor) (any, error) { var m Pong; m.walk(&c); return m, c.End() },
	msgKNNReq:       func(c codec.Cursor) (any, error) { var m KNNReq; m.walk(&c); return m, c.End() },
	msgKNNResp:      func(c codec.Cursor) (any, error) { var m KNNResp; m.walk(&c); return m, c.End() },
	msgRangeReq:     func(c codec.Cursor) (any, error) { var m RangeReq; m.walk(&c); return m, c.End() },
	msgRangeResp:    func(c codec.Cursor) (any, error) { var m RangeResp; m.walk(&c); return m, c.End() },
	msgInsertReq:    func(c codec.Cursor) (any, error) { var m UpdateReq; m.walk(&c); return m, c.End() },
	msgDeleteReq:    func(c codec.Cursor) (any, error) { m := UpdateReq{Delete: true}; m.walk(&c); return m, c.End() },
	msgUpdateResp:   func(c codec.Cursor) (any, error) { var m UpdateResp; m.walk(&c); return m, c.End() },
	msgJoinReq:      func(c codec.Cursor) (any, error) { var m JoinReq; m.walk(&c); return m, c.End() },
	msgAggReq:       func(c codec.Cursor) (any, error) { var m AggReq; m.walk(&c); return m, c.End() },
	msgAggResp:      func(c codec.Cursor) (any, error) { var m AggResp; m.walk(&c); return m, c.End() },
	msgIngestReq:    func(c codec.Cursor) (any, error) { var m IngestReq; m.walk(&c); return m, c.End() },
	msgExpireReq:    func(c codec.Cursor) (any, error) { var m ExpireReq; m.walk(&c); return m, c.End() },
	msgExpireResp:   func(c codec.Cursor) (any, error) { var m ExpireResp; m.walk(&c); return m, c.End() },
	msgStatsReq:     func(c codec.Cursor) (any, error) { return StatsReq{}, c.End() },
	msgStatsResp:    func(c codec.Cursor) (any, error) { var m StatsResp; m.walk(&c); return m, c.End() },
	msgErr:          func(c codec.Cursor) (any, error) { m := new(RemoteError); m.walk(&c); return m, c.End() },
	msgCellSnapReq:  func(c codec.Cursor) (any, error) { var m CellSnapshotReq; m.walk(&c); return m, c.End() },
	msgCellSnapResp: func(c codec.Cursor) (any, error) { var m CellSnapshotResp; m.walk(&c); return m, c.End() },
	msgResyncReq:    func(c codec.Cursor) (any, error) { var m ResyncReq; m.walk(&c); return m, c.End() },
	msgResyncResp:   func(c codec.Cursor) (any, error) { var m ResyncResp; m.walk(&c); return m, c.End() },
	msgAggCellsReq:  func(c codec.Cursor) (any, error) { var m AggCellsReq; m.walk(&c); return m, c.End() },
	msgCellSumReq:   func(c codec.Cursor) (any, error) { var m CellChecksumReq; m.walk(&c); return m, c.End() },
	msgCellSumResp:  func(c codec.Cursor) (any, error) { var m CellChecksumResp; m.walk(&c); return m, c.End() },
	msgMigBeginReq:  func(c codec.Cursor) (any, error) { var m MigrateBegin; m.walk(&c); return m, c.End() },
	msgMigCommitReq: func(c codec.Cursor) (any, error) { var m MigrateCommit; m.walk(&c); return m, c.End() },
	msgMigResp:      func(c codec.Cursor) (any, error) { var m MigrateResp; m.walk(&c); return m, c.End() },
}

// ReadFrame reads one length-prefixed frame and returns its CRC-validated
// payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	return codec.ReadFrame(r, maxFramePayload, ErrWire)
}

// DecodePayload parses a CRC-validated frame payload for a connection of
// the given dimension. It returns the echoed request ID and one of the
// typed messages above. DecodePayload never panics on arbitrary input.
func DecodePayload(payload []byte, dim int) (reqID uint64, m any, err error) {
	if dim < 1 || dim > 1<<16-1 {
		return 0, nil, fmt.Errorf("%w: impossible dimension %d", ErrWire, dim)
	}
	c := codec.Decoder(payload, dim, ErrWire)
	var t uint8
	c.U8(&t)
	c.U64(&reqID)
	decode := decoders[t]
	if decode == nil && c.Err == nil {
		c.Fail("unknown message type 0x%02x", t)
	}
	if c.Err != nil {
		return reqID, nil, c.Err
	}
	m, err = decode(c)
	if err != nil {
		return reqID, nil, err
	}
	return reqID, m, nil
}

// Message walks: each message states its body layout once, for both
// directions, with its validity rules beside the fields they guard.

func (Ping) put(c codec.Cursor) ([]byte, byte)     { return c.Buf, msgPing }
func (StatsReq) put(c codec.Cursor) ([]byte, byte) { return c.Buf, msgStatsReq }

func (m Pong) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgPong }
func (m *Pong) walk(c *codec.Cursor) {
	c.Flag(&m.Ready)
	c.I64(&m.Size)
	c.Flag(&m.Synced)
	c.U64(&m.SyncGen)
}

func (m KNNReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgKNNReq }
func (m *KNNReq) walk(c *codec.Cursor) {
	c.Int(&m.K)
	c.Points(&m.Points)
	if c.Dec && (m.K < 1 || m.K > 1<<20) {
		c.Fail("knn k=%d out of range", m.K)
	}
}

func (m KNNResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgKNNResp }
func (m *KNNResp) walk(c *codec.Cursor) {
	for i := range codec.Seq(c, &m.Results, 4) {
		for j := range codec.Seq(c, &m.Results[i], 12+8*c.Dim) {
			x := &m.Results[i][j]
			c.I32(&x.ID)
			c.F64(&x.Dist2)
			c.Point(&x.P)
		}
	}
}

func (m RangeReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgRangeReq }
func (m *RangeReq) walk(c *codec.Cursor)             { c.Boxes(&m.Boxes) }

func (m RangeResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgRangeResp }
func (m *RangeResp) walk(c *codec.Cursor) {
	for i := range codec.Seq(c, &m.Results, 4) {
		c.Items(&m.Results[i])
	}
}

func (m UpdateReq) put(c codec.Cursor) ([]byte, byte) {
	m.walk(&c)
	if m.Delete {
		return c.Buf, msgDeleteReq
	}
	return c.Buf, msgInsertReq
}
func (m *UpdateReq) walk(c *codec.Cursor) { c.Items(&m.Items) }

func (m UpdateResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgUpdateResp }
func (m *UpdateResp) walk(c *codec.Cursor)             { c.Int(&m.Applied) }

func (m JoinReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgJoinReq }
func (m *JoinReq) walk(c *codec.Cursor) {
	c.F64(&m.Radius)
	if c.Dec && (math.IsNaN(m.Radius) || math.IsInf(m.Radius, 0) || m.Radius < 0) {
		c.Fail("join radius %v out of range", m.Radius)
	}
	c.Points(&m.Points)
}

func (m AggReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgAggReq }
func (m *AggReq) walk(c *codec.Cursor)             { c.Boxes(&m.Boxes) }

func (m AggResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgAggResp }
func (m *AggResp) walk(c *codec.Cursor) {
	for i := range codec.Seq(c, &m.Results, 8+3*c.Dim) {
		a := &m.Results[i]
		c.Nonneg(&a.Count, "aggregate count")
		if c.Dec && c.Err == nil {
			a.Sums = make([]mathx.ExactSum, c.Dim)
		}
		for d := range a.Sums {
			exactSum(c, &a.Sums[d])
		}
	}
}

func (m IngestReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgIngestReq }
func (m *IngestReq) walk(c *codec.Cursor)             { c.TimedItems(&m.Items, &m.ExpireAts) }

func (m ExpireReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgExpireReq }
func (m *ExpireReq) walk(c *codec.Cursor)             { c.I64(&m.Now) }

func (m ExpireResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgExpireResp }
func (m *ExpireResp) walk(c *codec.Cursor)             { c.Nonneg(&m.Expired, "expired count") }

func (m StatsResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgStatsResp }
func (m *StatsResp) walk(c *codec.Cursor) {
	for i := range codec.Seq(c, &m.Kinds, 13) {
		k := &m.Kinds[i]
		n := uint8(len(k.Kind))
		c.U8(&n)
		c.Str(&k.Kind, int(n))
		c.Nonneg(&k.Max, "histogram max")
		for j := range codec.Seq(c, &k.Buckets, 16) {
			c.Nonneg(&k.Buckets[j].Low, "histogram bucket")
			c.Nonneg(&k.Buckets[j].Count, "histogram bucket")
		}
	}
}

func (m *RemoteError) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgErr }
func (m *RemoteError) walk(c *codec.Cursor) {
	c.U16(&m.Code)
	c.Str(&m.Msg, c.Count(len(m.Msg)))
}

func (m CellSnapshotReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgCellSnapReq }
func (m *CellSnapshotReq) walk(c *codec.Cursor) {
	cell(c, &m.Cell)
	c.Box(&m.Box)
	c.U64(&m.Offset)
	c.Int(&m.Limit)
}

func (m CellSnapshotResp) put(c codec.Cursor) ([]byte, byte) {
	m.walk(&c)
	return c.Buf, msgCellSnapResp
}
func (m *CellSnapshotResp) walk(c *codec.Cursor) {
	c.U64(&m.Total)
	c.TimedItems(&m.Items, &m.ExpireAts)
	c.TimedItems(&m.Orphans, &m.OrphanAts)
	if c.Dec && uint64(len(m.Items)) > m.Total {
		c.Fail("snapshot page %d items exceeds total %d", len(m.Items), m.Total)
	}
}

func (m ResyncReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgResyncReq }
func (m *ResyncReq) walk(c *codec.Cursor)             { c.Flag(&m.Evidenced) }

func (m ResyncResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgResyncResp }
func (m *ResyncResp) walk(c *codec.Cursor) {
	c.Flag(&m.Started)
	c.U64(&m.Target)
}

func (m AggCellsReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgAggCellsReq }
func (m *AggCellsReq) walk(c *codec.Cursor) {
	c.Box(&m.Box)
	c.Boxes(&m.Cells)
}

// Cells and Boxes travel interleaved, one (cell, box) record per entry.
func (m CellChecksumReq) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgCellSumReq }
func (m *CellChecksumReq) walk(c *codec.Cursor) {
	n := len(codec.Seq(c, &m.Cells, 4+16*c.Dim))
	if c.Dec {
		m.Boxes = make([]geom.Box, n)
	}
	for i := range m.Cells {
		cell(c, &m.Cells[i])
		c.Box(&m.Boxes[i])
	}
}

func (m CellChecksumResp) put(c codec.Cursor) ([]byte, byte) {
	m.walk(&c)
	return c.Buf, msgCellSumResp
}
func (m *CellChecksumResp) walk(c *codec.Cursor) {
	for i := range codec.Seq(c, &m.Sums, 16) {
		c.U64(&m.Sums[i].Count)
		c.U64(&m.Sums[i].Digest)
	}
}

func (m MigrateBegin) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgMigBeginReq }
func (m *MigrateBegin) walk(c *codec.Cursor) {
	epoch(c, &m.Epoch)
	cell(c, &m.Cell)
	c.Box(&m.Box)
	c.Str(&m.Source, c.Count(len(m.Source)))
	c.Int(&m.PageSize)
}

func (m MigrateCommit) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgMigCommitReq }
func (m *MigrateCommit) walk(c *codec.Cursor) {
	epoch(c, &m.Epoch)
	cell(c, &m.Cell)
	for i := range codec.Seq(c, &m.Ops, codec.ItemSize(c.Dim)+9) {
		op := &m.Ops[i]
		c.Flag(&op.Delete)
		c.Item(&op.Item)
		c.I64(&op.ExpireAt)
	}
}

func (m MigrateResp) put(c codec.Cursor) ([]byte, byte) { m.walk(&c); return c.Buf, msgMigResp }
func (m *MigrateResp) walk(c *codec.Cursor) {
	c.U64(&m.Staged)
	c.Flag(&m.Changed)
}

// cell is a partition cell id: uint32 on the wire, at most 1<<20.
func cell(c *codec.Cursor, v *int) {
	c.Int(v)
	if c.Dec && *v > 1<<20 {
		c.Fail("cell id %d out of range", *v)
	}
}

// epoch is a placement epoch; epochs start at 1, so 0 is malformed.
func epoch(c *codec.Cursor, v *uint64) {
	c.U64(v)
	if c.Dec && *v == 0 {
		c.Fail("migration epoch 0 (epochs start at 1)")
	}
}

// exactSum travels in ExactSum's sparse word form: flags, a uint16 term
// count, then (index uint16, word uint64) terms. Canonical form only, so
// decode→encode is byte-identical: raw index strictly ascending —
// positive-accumulator words sort before negative ones because of the index
// high bit — and no zero words.
func exactSum(c *codec.Cursor, s *mathx.ExactSum) {
	var terms []mathx.SumTerm
	var flags uint8
	if !c.Dec {
		terms, flags = s.Terms()
	}
	c.U8(&flags)
	n := uint16(len(terms))
	c.U16(&n)
	prev := -1
	for i := range codec.List(c, &terms, int(n), 10) {
		t := &terms[i]
		c.U16(&t.Index)
		c.U64(&t.Word)
		if c.Dec && (int(t.Index) <= prev || t.Word == 0) {
			c.Fail("non-canonical aggregate sum terms")
		}
		prev = int(t.Index)
	}
	if c.Dec && c.Err == nil {
		sum, ok := mathx.SumFromTerms(terms, flags)
		if !ok {
			c.Fail("invalid aggregate sum terms")
		}
		*s = sum
	}
}
