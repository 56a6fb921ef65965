package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// Client talks the binary wire protocol to one shard. It keeps a small pool
// of TCP connections (each synchronous: one in-flight request per conn, so
// frame correlation is trivial and a timeout poisons only its own conn) and
// is safe for concurrent use. Transport failures are returned as plain
// errors; shard-side failures come back as *RemoteError.
type Client struct {
	addr string
	dim  int
	// dialTimeout bounds connection establishment; per-request deadlines
	// come from the caller's context.
	dialTimeout time.Duration

	mu   sync.Mutex
	idle []*clientConn
	// maxIdle bounds the pooled connections; extra conns are closed on
	// release rather than pooled.
	maxIdle int

	reqID atomic.Uint64
	// bytesOut/bytesIn meter the wire traffic (frames, both directions) —
	// /statsz surfaces them, and TestClusterMigrationOracle budgets a
	// migration's share.
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

// NewClient returns a client for the shard at addr that expects points of
// the given dimension. Connections are dialed lazily.
func NewClient(addr string, dim int) *Client {
	return &Client{addr: addr, dim: dim, dialTimeout: 2 * time.Second, maxIdle: 4}
}

// Addr returns the shard's wire address.
func (c *Client) Addr() string { return c.addr }

// WireBytes returns the cumulative frame bytes sent and received.
func (c *Client) WireBytes() (out, in int64) { return c.bytesOut.Load(), c.bytesIn.Load() }

type clientConn struct {
	c  *Client
	nc net.Conn
}

// acquire returns a pooled conn or dials a fresh one, validating the
// handshake.
func (c *Client) acquire(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	d := net.Dialer{Timeout: c.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(dl)
	}
	dim, err := ReadHandshake(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("shard %s: handshake: %w", c.addr, err)
	}
	c.bytesIn.Add(handshakeSize)
	if dim != c.dim {
		nc.Close()
		return nil, fmt.Errorf("shard %s: dimension %d, router dimension %d", c.addr, dim, c.dim)
	}
	return &clientConn{c: c, nc: nc}, nil
}

func (c *Client) put(cc *clientConn) {
	_ = cc.nc.SetDeadline(time.Time{})
	c.mu.Lock()
	if len(c.idle) < c.maxIdle {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.nc.Close()
}

// Close drops every pooled connection.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.nc.Close()
	}
}

// conner is where a call gets its connection and what becomes of it after
// the exchange — the only difference between a pooled call (Client) and a
// pinned one (Session).
type conner interface {
	acquire(ctx context.Context) (*clientConn, error)
	// release takes the conn back with the call's outcome: nil, a
	// *RemoteError (the stream is still in step), or a transport, decode or
	// correlation failure (it is not).
	release(cc *clientConn, err error)
}

// release pools a conn whose stream is still in step and closes one that
// failed mid-exchange, so a stale late response can never be mis-correlated
// with a future request.
func (c *Client) release(cc *clientConn, err error) {
	var re *RemoteError
	if err == nil || errors.As(err, &re) {
		c.put(cc)
	} else {
		cc.nc.Close()
	}
}

// exchange sends one request frame on cc and reads the matching response.
// Any error leaves the stream out of step: the caller must not reuse cc.
func (cc *clientConn) exchange(ctx context.Context, m any) (any, error) {
	c := cc.c
	if dl, ok := ctx.Deadline(); ok {
		_ = cc.nc.SetDeadline(dl)
	}
	id := c.reqID.Add(1)
	frame := EncodeFrame(id, m, c.dim)
	if _, err := cc.nc.Write(frame); err != nil {
		return nil, err
	}
	c.bytesOut.Add(int64(len(frame)))
	payload, err := ReadFrame(cc.nc)
	if err != nil {
		return nil, err
	}
	c.bytesIn.Add(int64(frameHeader + len(payload)))
	gotID, resp, err := DecodePayload(payload, c.dim)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("%w: response for request %d, want %d", ErrWire, gotID, id)
	}
	return resp, nil
}

// call runs one request on a conn from src and returns the response as an R:
// a shard-side failure comes back as *RemoteError, any other reply type as
// ErrWire. what names the call in errors.
func call[R any](ctx context.Context, src conner, what string, m any) (R, error) {
	var r R
	cc, err := src.acquire(ctx)
	if err != nil {
		return r, err
	}
	resp, err := cc.exchange(ctx, m)
	if err == nil {
		switch v := resp.(type) {
		case R:
			r = v
		case *RemoteError:
			err = v
		default:
			err = fmt.Errorf("%w: %s answered with %T", ErrWire, what, resp)
		}
	}
	src.release(cc, err)
	return r, err
}

// results checks a per-query reply carries exactly one result per query.
func results[T any](what string, got []T, err error, want int) ([]T, error) {
	if err == nil && len(got) != want {
		return nil, fmt.Errorf("%w: %s answered %d results for %d queries", ErrWire, what, len(got), want)
	}
	return got, err
}

// Ping asks the shard for readiness and live point count.
func (c *Client) Ping(ctx context.Context) (Pong, error) {
	return call[Pong](ctx, c, "ping", Ping{})
}

// KNN returns, per query point, the shard's k nearest candidates in
// canonical (dist2, id) order.
func (c *Client) KNN(ctx context.Context, pts []geom.Point, k int) ([][]heapx.Candidate, error) {
	r, err := call[KNNResp](ctx, c, "knn", KNNReq{K: k, Points: pts})
	return results("knn", r.Results, err, len(pts))
}

// Range returns, per box, the shard's items inside it.
func (c *Client) Range(ctx context.Context, boxes []geom.Box) ([][]core.Item, error) {
	r, err := call[RangeResp](ctx, c, "range", RangeReq{Boxes: boxes})
	return results("range", r.Results, err, len(boxes))
}

// Update applies an insert (or delete) batch on the shard. It returns only
// after the shard acknowledged the batch — in durable shards, after the
// write-ahead-log append.
func (c *Client) Update(ctx context.Context, del bool, items []core.Item) (int, error) {
	r, err := call[UpdateResp](ctx, c, "update", UpdateReq{Delete: del, Items: items})
	return r.Applied, err
}

// Join returns, per probe point, the shard's items within the radius, in
// canonical item order.
func (c *Client) Join(ctx context.Context, pts []geom.Point, radius float64) ([][]core.Item, error) {
	r, err := call[RangeResp](ctx, c, "join", JoinReq{Radius: radius, Points: pts})
	return results("join", r.Results, err, len(pts))
}

// Aggregate returns, per box, the shard's partial windowed aggregate
// (count + exact coordinate sums).
func (c *Client) Aggregate(ctx context.Context, boxes []geom.Box) ([]core.BoxAggregate, error) {
	r, err := call[AggResp](ctx, c, "aggregate", AggReq{Boxes: boxes})
	return results("aggregate", r.Results, err, len(boxes))
}

// Ingest applies a batch of streaming inserts with per-item logical expiry
// deadlines (expireAts parallel to items).
func (c *Client) Ingest(ctx context.Context, items []core.Item, expireAts []int64) (int, error) {
	if len(items) != len(expireAts) {
		return 0, fmt.Errorf("shard: ingest of %d items with %d deadlines", len(items), len(expireAts))
	}
	r, err := call[UpdateResp](ctx, c, "ingest", IngestReq{Items: items, ExpireAts: expireAts})
	return r.Applied, err
}

// Expire sweeps every ingested item on the shard whose deadline is at or
// before now, returning the number deleted.
func (c *Client) Expire(ctx context.Context, now int64) (int64, error) {
	r, err := call[ExpireResp](ctx, c, "expire", ExpireReq{Now: now})
	return r.Expired, err
}

// AggregateCells returns the shard's windowed aggregate over box
// restricted to the union of the given half-open cells — the
// replication-aware aggregate: the router sends each shard only the cells
// it assigned to that shard, so summing partials counts every item once.
func (c *Client) AggregateCells(ctx context.Context, box geom.Box, cells []geom.Box) (core.BoxAggregate, error) {
	r, err := call[AggResp](ctx, c, "aggregate-cells", AggCellsReq{Box: box, Cells: cells})
	res, err := results("aggregate-cells", r.Results, err, 1)
	if err != nil {
		return core.BoxAggregate{}, err
	}
	return res[0], nil
}

// CellChecksums fetches one checksum per cell (boxes parallel to cells) —
// the anti-entropy probe. The shard computes each digest in a metered
// read round, so two replicas answering with equal checksums hold, up to
// digest collision, identical replicated state for that cell.
func (c *Client) CellChecksums(ctx context.Context, cells []int, boxes []geom.Box) ([]CellChecksum, error) {
	if len(cells) != len(boxes) {
		return nil, fmt.Errorf("shard: checksum of %d cells with %d boxes", len(cells), len(boxes))
	}
	r, err := call[CellChecksumResp](ctx, c, "cell checksums", CellChecksumReq{Cells: cells, Boxes: boxes})
	return results("cell checksums", r.Sums, err, len(cells))
}

// Resync asks the shard to run another peer-rebuild convergence pass (the
// router sends this when it fenced the shard as stale). Evidenced tells
// the shard whether the router watched it miss an acked write (it must
// then converge against a peer before claiming sync again) or the fence
// is a revival precaution (its durable state is authoritative if no peer
// turns up within its patience window). It returns whether a pass was
// scheduled and the sync generation at which the nudge is proven served:
// the router keeps the shard fenced until its pong generation reaches
// target.
func (c *Client) Resync(ctx context.Context, evidenced bool) (bool, uint64, error) {
	r, err := call[ResyncResp](ctx, c, "resync", ResyncReq{Evidenced: evidenced})
	return r.Started, r.Target, err
}

// Stats fetches the shard's per-kind latency histograms in sparse form.
func (c *Client) Stats(ctx context.Context) (StatsResp, error) {
	return call[StatsResp](ctx, c, "stats", StatsReq{})
}

// Session is a pinned-connection view of the client, for the two wire
// exchanges whose state lives on one connection: the one-consistent-cut
// cell-snapshot stash (every page of one pull must slice one cut) and the
// migration stage (Begin pulls the cut onto the serving conn and Commit
// applies it, so a dropped conn discards the stage and a torn migration
// applies nothing).
// Unlike the pooled client, a Session is for one goroutine; any error
// poisons it — the conn is closed, the shard discards conn-local state,
// and every later call fails.
type Session struct {
	c   *Client
	cc  *clientConn
	err error
}

// NewSession pins one connection (pooled or freshly dialed) for a
// paginated exchange. Close returns the conn to the pool when the session
// is still healthy.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	cc, err := c.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, cc: cc}, nil
}

// Close releases the pinned conn to the pool. A poisoned or aborted session
// has already closed it.
func (s *Session) Close() {
	if s.cc != nil {
		s.c.put(s.cc)
		s.cc = nil
	}
}

// Abort closes the pinned conn unconditionally, discarding shard-side
// conn-local state even when no call has failed — the way the rebalancer
// drops a staged migration without committing it.
func (s *Session) Abort() {
	if s.cc != nil {
		s.release(s.cc, fmt.Errorf("shard %s: session aborted", s.c.addr))
	}
}

func (s *Session) acquire(context.Context) (*clientConn, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.cc == nil {
		return nil, fmt.Errorf("shard %s: session closed", s.c.addr)
	}
	return s.cc, nil
}

// release keeps the pinned conn after a clean call and poisons the session
// after anything else. That includes a *RemoteError: the refusal leaves the
// stream healthy but the conn-local stage in an unknown state, so the stage
// is discarded with the conn rather than half-reused.
func (s *Session) release(cc *clientConn, err error) {
	if err != nil {
		s.err = err
		s.cc = nil
		cc.nc.Close()
	}
}

// CellSnapshot fetches one page of a cell over the pinned conn, so every
// page of the pull slices the same shard-side cut regardless of what other
// traffic shares the client's pool.
func (s *Session) CellSnapshot(ctx context.Context, cell int, box geom.Box, offset uint64, limit int) (CellSnapshotResp, error) {
	return call[CellSnapshotResp](ctx, s, "cell snapshot", CellSnapshotReq{Cell: cell, Box: box, Offset: offset, Limit: limit})
}

// ErrCutMoved reports that a cell's contents changed between the pages of
// one pull, so the pages cannot be stitched into one consistent cut.
var ErrCutMoved = errors.New("shard: cell cut moved during the pull")

// PullCell pages a cell box's full contents off the shard over a pinned
// session: the first page pins the shard-side cut and its Total, and every
// later page must slice that same cut. A Total that changes means the cut
// moved under the stream (ErrCutMoved), and the pull restarts on a fresh
// session, at most three times; any other failure — a page with no items
// while items are still owed means the stream tore — returns at once with
// nothing pulled. Each wire call gets its own timeout within ctx.
func (c *Client) PullCell(ctx context.Context, timeout time.Duration, cell int, box geom.Box, pageSize int) (CellSnapshotResp, error) {
	for attempt := 1; ; attempt++ {
		cut, err := c.pullOnce(ctx, timeout, cell, box, pageSize)
		if !errors.Is(err, ErrCutMoved) || attempt == 3 {
			return cut, err
		}
	}
}

func (c *Client) pullOnce(ctx context.Context, timeout time.Duration, cell int, box geom.Box, pageSize int) (cut CellSnapshotResp, err error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	s, err := c.NewSession(cctx)
	cancel()
	if err != nil {
		return cut, err
	}
	defer s.Close()
	for first := true; ; first = false {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		page, err := s.CellSnapshot(cctx, cell, box, uint64(len(cut.Items)), pageSize)
		cancel()
		if err != nil {
			return CellSnapshotResp{}, err
		}
		if first {
			cut.Total = page.Total
		} else if page.Total != cut.Total {
			return CellSnapshotResp{}, fmt.Errorf("%w (%d != %d items)", ErrCutMoved, page.Total, cut.Total)
		}
		cut.Items = append(cut.Items, page.Items...)
		cut.ExpireAts = append(cut.ExpireAts, page.ExpireAts...)
		if uint64(len(cut.Items)) >= cut.Total {
			cut.Orphans, cut.OrphanAts = page.Orphans, page.OrphanAts
			return cut, nil
		}
		if len(page.Items) == 0 {
			return CellSnapshotResp{}, fmt.Errorf("shard %s: cell %d pull stalled at %d of %d items", c.addr, cell, len(cut.Items), cut.Total)
		}
	}
}

// MigrateBegin stages a migration of cell's half-open box on this conn:
// the shard pulls the box from the shard at source, pageSize items per
// page, and returns how many items it staged. An empty source stages the
// empty set. The call lasts the whole pull, so ctx must allow for every
// page of it.
func (s *Session) MigrateBegin(ctx context.Context, epoch uint64, cell int, box geom.Box, source string, pageSize int) (uint64, error) {
	r, err := call[MigrateResp](ctx, s, "migrate begin", MigrateBegin{Epoch: epoch, Cell: cell, Box: box, Source: source, PageSize: pageSize})
	return r.Staged, err
}

// MigrateCommit atomically applies the staged cut plus the replayed write
// ledger as cell's exact contents, reporting whether local state changed.
func (s *Session) MigrateCommit(ctx context.Context, epoch uint64, cell int, ops []MigrateOp) (bool, error) {
	r, err := call[MigrateResp](ctx, s, "migrate commit", MigrateCommit{Epoch: epoch, Cell: cell, Ops: ops})
	return r.Changed, err
}
