package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/httpapi"
	"pimkd/internal/trace"
)

// NewHandler exposes a Service over HTTP. Read endpoints are GETs with a
// comma-separated point parameter; update endpoints are POSTs. Every data
// response carries the BatchInfo of the coalesced batch the request rode
// in, so clients observe batching directly.
//
//	GET  /lookup?p=0.1,0.2
//	GET  /knn?p=0.1,0.2&k=8
//	GET  /range?lo=0.1,0.1&hi=0.3,0.4
//	GET  /join?p=0.1,0.2&r=0.05
//	GET  /aggregate?lo=0.1,0.1&hi=0.3,0.4
//	POST /insert?id=7&p=0.5,0.5[&priority=2.5]
//	POST /delete?id=7&p=0.5,0.5
//	POST /ingest?id=7&p=0.5,0.5&expire_at=1000[&priority=2.5]
//	POST /expire?now=1000
//	GET  /statsz
//	GET  /tracez[?k=10][&format=perfetto]
//	GET  /persistz
//	GET  /healthz
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, s.Metrics())
	})

	mux.HandleFunc("/persistz", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.PersistStatus()
		if !ok {
			http.Error(w, "persistence disabled: start the service with Config.Persist", http.StatusNotFound)
			return
		}
		var snapAge float64
		if st.SnapshotUnixNano > 0 {
			snapAge = time.Since(time.Unix(0, st.SnapshotUnixNano)).Seconds()
		}
		rec := st.LastRecovery
		httpapi.WriteJSON(w, struct {
			Dir                string  `json:"dir"`
			LSN                uint64  `json:"lsn"`
			Fsync              bool    `json:"fsync"`
			SnapshotLSN        uint64  `json:"snapshot_lsn"`
			SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
			SnapshotBytes      int64   `json:"snapshot_bytes"`
			WALSegments        int     `json:"wal_segments"`
			WALBytes           int64   `json:"wal_bytes"`
			Appends            uint64  `json:"appends"`
			Syncs              uint64  `json:"syncs"`
			CheckpointsStarted uint64  `json:"checkpoints_started"`
			CheckpointsWritten uint64  `json:"checkpoints_written"`
			LastCheckpointErr  string  `json:"last_checkpoint_err,omitempty"`
			// Last-recovery summary: what Open found at startup and what the
			// replay cost in metered terms.
			Recovered         bool    `json:"recovered"`
			RecoverySnapshot  string  `json:"recovery_snapshot,omitempty"`
			ReplayRecords     int     `json:"replay_records"`
			ReplayItems       int     `json:"replay_items"`
			TornBytesDropped  int64   `json:"torn_bytes_dropped"`
			ReplayCommWords   int64   `json:"replay_comm_words"`
			ReplayWallSeconds float64 `json:"replay_wall_seconds"`
		}{
			Dir: st.Dir, LSN: st.LSN, Fsync: st.Fsync,
			SnapshotLSN: st.SnapshotLSN, SnapshotAgeSeconds: snapAge, SnapshotBytes: st.SnapshotBytes,
			WALSegments: st.WALSegments, WALBytes: st.WALBytes,
			Appends: st.Appends, Syncs: st.Syncs,
			CheckpointsStarted: st.CheckpointsStarted, CheckpointsWritten: st.CheckpointsWritten,
			LastCheckpointErr: st.LastCheckpointErr,
			Recovered:         rec.Recovered,
			RecoverySnapshot:  rec.SnapshotPath,
			ReplayRecords:     rec.ReplayRecords,
			ReplayItems:       rec.ReplayItems,
			TornBytesDropped:  rec.TornBytes,
			ReplayCommWords:   rec.ReplayCost.Communication,
			ReplayWallSeconds: rec.ReplayWall.Seconds(),
		})
	})

	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		t := s.Tracer()
		if t == nil {
			http.Error(w, "tracing disabled: start the service with Config.TraceCapacity > 0", http.StatusNotFound)
			return
		}
		recs := t.Records()
		if r.FormValue("format") == "perfetto" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="pimkd-trace.json"`)
			if err := trace.WritePerfetto(w, recs); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		topK := 5
		if ks := r.FormValue("k"); ks != "" {
			if v, err := strconv.Atoi(ks); err == nil && v > 0 {
				topK = v
			}
		}
		httpapi.WriteJSON(w, struct {
			Seen    int64         `json:"seen"`
			Dropped int64         `json:"dropped"`
			Totals  trace.Totals  `json:"totals"`
			Report  *trace.Report `json:"report"`
		}{t.Seen(), t.Dropped(), t.Totals(), trace.Analyze(recs, topK)})
	})

	type found struct {
		Items []httpapi.Item `json:"items"`
		Batch BatchInfo      `json:"batch"`
	}
	httpapi.Handle(mux, "/lookup", httpapi.Point, s.okReply, func(ctx context.Context, p geom.Point) (any, error) {
		items, info, err := s.Lookup(ctx, p)
		return found{httpapi.Items(items), info}, err
	})

	httpapi.Handle(mux, "/knn", httpapi.KNN, s.okReply, func(ctx context.Context, q httpapi.KNNQuery) (any, error) {
		neighbors, info, err := s.KNN(ctx, q.P, q.K)
		return struct {
			Neighbors []Neighbor `json:"neighbors"`
			Batch     BatchInfo  `json:"batch"`
		}{neighbors, info}, err
	})

	httpapi.Handle(mux, "/range", httpapi.Box, s.okReply, func(ctx context.Context, box geom.Box) (any, error) {
		items, info, err := s.Range(ctx, box)
		return found{httpapi.Items(items), info}, err
	})

	httpapi.Handle(mux, "/join", httpapi.Join, s.okReply, func(ctx context.Context, q httpapi.JoinQuery) (any, error) {
		items, info, err := s.Join(ctx, q.P, q.Radius)
		return struct {
			Matches []httpapi.Item `json:"matches"`
			Batch   BatchInfo      `json:"batch"`
		}{httpapi.Items(items), info}, err
	})

	httpapi.Handle(mux, "/aggregate", httpapi.Box, s.okReply, func(ctx context.Context, box geom.Box) (any, error) {
		agg, info, err := s.Aggregate(ctx, box)
		return struct {
			Count    int64     `json:"count"`
			Centroid []float64 `json:"centroid,omitempty"`
			Batch    BatchInfo `json:"batch"`
		}{agg.Count, agg.Centroid(), info}, err
	})

	httpapi.Handle(mux, "POST /expire", httpapi.ExpireNow, s.okReply, func(ctx context.Context, now int64) (any, error) {
		n, info, err := s.Expire(ctx, now)
		return struct {
			Expired int       `json:"expired"`
			Batch   BatchInfo `json:"batch"`
		}{n, info}, err
	})

	type updated struct {
		Batch BatchInfo `json:"batch"`
	}
	httpapi.Handle(mux, "POST /insert", httpapi.UpdateItem, s.okReply, func(ctx context.Context, it core.Item) (any, error) {
		info, err := s.Insert(ctx, it)
		return updated{info}, err
	})
	httpapi.Handle(mux, "POST /delete", httpapi.UpdateItem, s.okReply, func(ctx context.Context, it core.Item) (any, error) {
		info, err := s.Delete(ctx, it)
		return updated{info}, err
	})
	httpapi.Handle(mux, "POST /ingest", httpapi.Ingest, s.okReply, func(ctx context.Context, q httpapi.IngestQuery) (any, error) {
		info, err := s.Ingest(ctx, q.Item, q.ExpireAt)
		return updated{info}, err
	})

	return mux
}

// okReply maps service errors to HTTP statuses; returns false when a status
// was already written. Robustness mapping: shed and drained requests get
// 503 (with Retry-After on sheds — the client should come back), a
// batch-worker panic gets 500 (a bug, not load), and a request whose own
// deadline or connection expired gets 504.
func (s *Service) okReply(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", httpapi.RetryAfterSecs(s.cfg.ShedRetryAfter))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrBatchPanic), errors.Is(err, ErrPersist):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}
