package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/httpapi"
)

// wireNeighbor mirrors the pimkd-server JSON shape so clients (and the
// serving example's load generator) work unchanged against the router.
type wireNeighbor struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// NewHandler exposes a Router over HTTP with the same client-facing
// endpoints as a single pimkd-server, plus the cluster membership view:
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
//	GET  /shardz
//	GET  /healthz
//	GET  /readyz
//
// /shardz mirrors each shard's per-kind latency quantiles (fetched live
// over the wire), the cluster-wide bucket-merged quantiles, and the
// per-cell replica health rows (home primary, acting primary, each
// replica's health/sync/stale state).
//
// Data responses carry a "fanout" block (scattered vs pruned shards) in
// place of the single-server "batch" block. Degraded answers are never
// served partially: ErrDegraded maps to 503.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()

	// Every 503 hint derives from the cadence at which the blocking state
	// actually changes: degradation heals when the next probe revives a
	// shard (or lifts a fence), so that interval — not a hardcoded second —
	// is when a retry can first succeed.
	hint := httpapi.RetryAfterSecs(r.cfg.ProbeInterval)

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	// The router is ready only when every partition cell has at least one
	// in-sync, unfenced replica — i.e. no read or write can 503 for lack of
	// coverage. "Some shard is healthy" is not readiness: with shards down a
	// healthy remainder still cannot answer for the missing cells, and a
	// load balancer routing on that signal would send traffic into
	// guaranteed ErrDegraded responses. Per-cell detail is in /shardz.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		m := r.Metrics()
		for _, cs := range r.Cells() {
			if cs.ActingPrimary < 0 {
				w.Header().Set("Retry-After", hint)
				http.Error(w, fmt.Sprintf("cell %d has no in-sync replica (%d/%d shards healthy)",
					cs.Cell, m.HealthyShards, m.TotalShards), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintf(w, "ok %d/%d shards, all cells covered\n", m.HealthyShards, m.TotalShards)
	})

	mux.HandleFunc("/statsz", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, r.Metrics())
	})

	mux.HandleFunc("/shardz", func(w http.ResponseWriter, req *http.Request) {
		st := r.Status()
		healthy := 0
		counts := make([]int64, len(st))
		for i, s := range st {
			if s.Healthy {
				healthy++
			}
			counts[i] = s.Count
		}
		perShard, cluster := r.Latency(req.Context())
		httpapi.WriteJSON(w, struct {
			Healthy     int           `json:"healthy"`
			Total       int           `json:"total"`
			Replication int           `json:"replication"`
			Rebalance   []int         `json:"rebalance_candidates"`
			Shards      []ShardStatus `json:"shards"`
			// Cells is the per-cell replica health view: home primary, acting
			// primary (-1 when the cell has no eligible replica and is
			// unavailable), and each replica's health/sync/stale state.
			Cells      []CellStatus `json:"cells"`
			DriftLimit float64      `json:"drift_threshold"`
			// Epoch is the current placement epoch (1 at boot, +1 per
			// committed cell migration); CellCounts the per-cell live point
			// counts sampled from each cell's acting primary — the view the
			// online rebalancer plans from, at cell (not shard) granularity.
			Epoch      uint64      `json:"placement_epoch"`
			CellCounts []CellCount `json:"cell_counts,omitempty"`
			// SweepTies counts anti-entropy verdicts that had no unique
			// majority digest and rested on the placement-order tie break —
			// the R=2 residual risk (DESIGN.md §11), surfaced rather than
			// silent.
			SweepTies int64 `json:"sweep_ties"`
			// Latency quantiles, per shard and cluster-merged. The merge is
			// bucket-wise over the shards' wire histograms, so the cluster
			// quantiles equal one histogram over every observation.
			Latency        []ShardLatency  `json:"latency"`
			ClusterLatency []KindQuantiles `json:"cluster_latency"`
			// Sweep is the last anti-entropy round's per-cell verdicts (absent
			// until the first sweep completes, or when sweeping is disabled).
			Sweep []CellSweepStatus `json:"sweep,omitempty"`
		}{healthy, len(st), r.Replication(), RebalanceCandidates(counts, r.cfg.RebalanceThreshold), st,
			r.Cells(), r.cfg.RebalanceThreshold, r.Epoch(), r.CellCounts(req.Context()), r.m.sweepTies.Load(),
			perShard, cluster, r.SweepStatus()})
	})

	ok := func(w http.ResponseWriter, err error) bool { return okReply(w, err, hint) }

	httpapi.Handle(mux, "/knn", httpapi.KNN, ok, func(ctx context.Context, q httpapi.KNNQuery) (any, error) {
		cands, fan, err := r.KNN(ctx, q.P, q.K)
		neighbors := make([]wireNeighbor, len(cands))
		for i, c := range cands {
			neighbors[i] = wireNeighbor{ID: c.ID, Dist: math.Sqrt(c.Dist2)}
		}
		return struct {
			Neighbors []wireNeighbor `json:"neighbors"`
			Fanout    Fanout         `json:"fanout"`
		}{neighbors, fan}, err
	})

	type found struct {
		Items  []httpapi.Item `json:"items"`
		Fanout Fanout         `json:"fanout"`
	}
	httpapi.Handle(mux, "/range", httpapi.Box, ok, func(ctx context.Context, box geom.Box) (any, error) {
		items, fan, err := r.Range(ctx, box)
		return found{httpapi.Items(items), fan}, err
	})

	// An exact-point lookup is a radius-0 spatial join: the owner shard
	// answers with the items stored at exactly p.
	httpapi.Handle(mux, "/lookup", httpapi.Point, ok, func(ctx context.Context, p geom.Point) (any, error) {
		items, fan, err := r.Join(ctx, p, 0)
		return found{httpapi.Items(items), fan}, err
	})

	httpapi.Handle(mux, "/join", httpapi.Join, ok, func(ctx context.Context, q httpapi.JoinQuery) (any, error) {
		items, fan, err := r.Join(ctx, q.P, q.Radius)
		return struct {
			Matches []httpapi.Item `json:"matches"`
			Fanout  Fanout         `json:"fanout"`
		}{httpapi.Items(items), fan}, err
	})

	httpapi.Handle(mux, "/aggregate", httpapi.Box, ok, func(ctx context.Context, box geom.Box) (any, error) {
		agg, fan, err := r.Aggregate(ctx, box)
		return struct {
			Count    int64     `json:"count"`
			Centroid []float64 `json:"centroid,omitempty"`
			Fanout   Fanout    `json:"fanout"`
		}{agg.Count, agg.Centroid(), fan}, err
	})

	httpapi.Handle(mux, "POST /expire", httpapi.ExpireNow, ok, func(ctx context.Context, now int64) (any, error) {
		n, fan, err := r.Expire(ctx, now)
		return struct {
			Expired int64  `json:"expired"`
			Fanout  Fanout `json:"fanout"`
		}{n, fan}, err
	})

	type updated struct {
		Fanout Fanout `json:"fanout"`
	}
	httpapi.Handle(mux, "POST /insert", httpapi.UpdateItem, ok, func(ctx context.Context, it core.Item) (any, error) {
		fan, err := r.Insert(ctx, it)
		return updated{fan}, err
	})
	httpapi.Handle(mux, "POST /delete", httpapi.UpdateItem, ok, func(ctx context.Context, it core.Item) (any, error) {
		fan, err := r.Delete(ctx, it)
		return updated{fan}, err
	})
	httpapi.Handle(mux, "POST /ingest", httpapi.Ingest, ok, func(ctx context.Context, q httpapi.IngestQuery) (any, error) {
		fan, err := r.Ingest(ctx, q.Item, q.ExpireAt)
		return updated{fan}, err
	})

	return mux
}

// okReply maps router errors onto HTTP statuses; returns false when a
// status was written. A degraded cluster (or a shard refusing because it is
// overloaded/not ready) is 503 — retryable, never a silent partial answer.
// Every 503 carries the caller's Retry-After hint (derived from the probe
// interval, the cadence at which a probe revives a shard or a resynced
// replica is readmitted), so clients come back when a retry can actually
// succeed rather than hammering a fixed second. A write bounced off a
// migration commit window (ErrMigrating) hints the header's floor of one
// second instead: the window lasts one ledger replay, far less than a
// probe interval. A request whose own deadline expired is 504.
func okReply(w http.ResponseWriter, err error, retryAfter string) bool {
	var re *RemoteError
	var ne net.Error
	retryable := func() {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrMigrating):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrDegraded):
		retryable()
	case errors.As(err, &re) && re.Retryable():
		retryable()
	case errors.As(err, &ne):
		// Transport failure mid-transition (a shard died but the prober has
		// not excluded it yet) — retryable, same as a degraded answer.
		retryable()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}
