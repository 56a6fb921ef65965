// Package httpapi is the request side of the client-facing HTTP API that
// pimkd-server (internal/serve) and pimkd-router (internal/shard) both
// expose: one parser per endpoint's query parameters, the JSON shape of an
// item, and the Retry-After rendering. The two front-ends differ only in
// what they call and in the batch / fanout block of their replies, so
// everything a client can get wrong is rejected here, identically.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// Handle mounts one data-plane endpoint on a ServeMux pattern ("/knn", or
// "POST /insert" for an update, which makes any other method a 405): parse
// the query (a refusal is a 400), run it, reply. ok is the front-end's
// mapping of run's error to a status: it reports whether the request
// succeeded and has written the failure when not; run's reply goes out as
// JSON only on success.
func Handle[Q any](mux *http.ServeMux, pattern string, parse func(*http.Request) (Q, error),
	ok func(http.ResponseWriter, error) bool, run func(context.Context, Q) (any, error)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		q, err := parse(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if reply, err := run(r.Context(), q); ok(w, err) {
			WriteJSON(w, reply)
		}
	})
}

// Point parses ?p=0.1,0.2 (GET /lookup).
func Point(r *http.Request) (geom.Point, error) { return pointParam(r, "p") }

// pointParam parses a comma-separated float point from query/form parameter
// name.
func pointParam(r *http.Request, name string) (geom.Point, error) {
	raw := r.FormValue(name)
	if raw == "" {
		return nil, fmt.Errorf("missing parameter %s", name)
	}
	parts := strings.Split(raw, ",")
	p := make(geom.Point, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s[%d]: %v", name, i, err)
		}
		p[i] = v
	}
	return p, nil
}

// KNNQuery is ?p=0.1,0.2&k=8 (GET /knn). A missing k means 1.
type KNNQuery struct {
	P geom.Point
	K int
}

// KNN parses a KNNQuery.
func KNN(r *http.Request) (q KNNQuery, err error) {
	if q.P, err = pointParam(r, "p"); err != nil {
		return q, err
	}
	q.K = 1
	if ks := r.FormValue("k"); ks != "" {
		if q.K, err = strconv.Atoi(ks); err != nil {
			return q, fmt.Errorf("bad k: %v", err)
		}
	}
	return q, nil
}

// Box parses ?lo=0.1,0.1&hi=0.3,0.4 (GET /range, /aggregate): both corners
// of one dimension, lo <= hi on every axis.
func Box(r *http.Request) (geom.Box, error) {
	lo, err := pointParam(r, "lo")
	if err != nil {
		return geom.Box{}, err
	}
	hi, err := pointParam(r, "hi")
	if err != nil {
		return geom.Box{}, err
	}
	if len(lo) != len(hi) {
		return geom.Box{}, fmt.Errorf("lo/hi dimension mismatch")
	}
	for d := range lo {
		if lo[d] > hi[d] {
			return geom.Box{}, fmt.Errorf("inverted box on axis %d", d)
		}
	}
	return geom.NewBox(lo, hi), nil
}

// JoinQuery is ?p=0.1,0.2&r=0.05 (GET /join).
type JoinQuery struct {
	P      geom.Point
	Radius float64
}

// Join parses a JoinQuery.
func Join(r *http.Request) (q JoinQuery, err error) {
	if q.P, err = pointParam(r, "p"); err != nil {
		return q, err
	}
	if q.Radius, err = strconv.ParseFloat(r.FormValue("r"), 64); err != nil {
		return q, fmt.Errorf("bad r: %v", err)
	}
	return q, nil
}

// UpdateItem parses POST ?id=7&p=0.5,0.5[&priority=2.5] (/insert, /delete).
func UpdateItem(r *http.Request) (it core.Item, err error) {
	if it.P, err = pointParam(r, "p"); err != nil {
		return it, err
	}
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 32)
	if err != nil {
		return it, fmt.Errorf("bad id: %v", err)
	}
	it.ID = int32(id)
	if ps := r.FormValue("priority"); ps != "" {
		if it.Priority, err = strconv.ParseFloat(ps, 64); err != nil {
			return it, fmt.Errorf("bad priority: %v", err)
		}
	}
	return it, nil
}

// IngestQuery is an UpdateItem plus &expire_at=1000 (POST /ingest).
type IngestQuery struct {
	Item     core.Item
	ExpireAt int64
}

// Ingest parses an IngestQuery.
func Ingest(r *http.Request) (q IngestQuery, err error) {
	if q.Item, err = UpdateItem(r); err != nil {
		return q, err
	}
	if q.ExpireAt, err = strconv.ParseInt(r.FormValue("expire_at"), 10, 64); err != nil {
		return q, fmt.Errorf("bad expire_at: %v", err)
	}
	return q, nil
}

// ExpireNow parses POST ?now=1000 (/expire).
func ExpireNow(r *http.Request) (int64, error) {
	now, err := strconv.ParseInt(r.FormValue("now"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad now: %v", err)
	}
	return now, nil
}

// Item is the JSON shape of a stored item.
type Item struct {
	ID       int32     `json:"id"`
	P        []float64 `json:"p"`
	Priority float64   `json:"priority,omitempty"`
}

// Items renders items in their JSON shape.
func Items(items []core.Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		out[i] = Item{ID: it.ID, P: it.P, Priority: it.Priority}
	}
	return out
}

// WriteJSON writes v as an indented JSON response body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; a failed write is the client's hang-up
}

// RetryAfterSecs renders a duration as a whole-second Retry-After value,
// rounding up so the hint never undershoots the cadence it is derived from
// (a 100ms probe interval still hints 1s — the header has no sub-second
// form, and a zero would tell clients not to wait at all).
func RetryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
