package shard_test

// Router HTTP contract tests: /readyz means cell coverage (every partition
// cell has an in-sync, unfenced replica), not "some shard is alive"; and
// every 503 — readiness or a degraded data answer — carries a Retry-After
// hint derived from the probe interval.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

// TestRouterReadyzCellCoverage: with R=2 over 3 shards, one dead shard
// leaves every cell covered and the router ready; killing a second,
// placement-adjacent shard uncovers their shared cell and /readyz must go
// 503 even though a healthy shard remains — the regression being pinned,
// since readiness used to be "any shard healthy". The degraded data path
// must 503 with the same derived Retry-After.
func TestRouterReadyzCellCoverage(t *testing.T) {
	const (
		dim    = 2
		shards = 3
	)
	part, err := shard.NewUniformPartition(dim, shards, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	cluster := make([]*testShard, shards)
	addrs := make([]string, shards)
	for i := range cluster {
		cluster[i] = startShard(t, dim, int64(i+1), "", "127.0.0.1:0")
		defer cluster[i].stop()
		addrs[i] = cluster[i].addr
	}
	router, err := shard.NewRouter(part, addrs, shard.Config{
		Timeout:       500 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 2,
		SweepInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h := shard.NewHandler(router)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	items := tieHeavyItems()
	if acked, err := router.BatchUpdate(context.Background(), false, items); err != nil || acked != len(items) {
		t.Fatalf("seeding: acked %d/%d, err %v", acked, len(items), err)
	}

	if rec := get("/readyz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "3/3") {
		t.Fatalf("/readyz with full cluster: %d %q", rec.Code, rec.Body.String())
	}

	// One dead shard: every cell keeps its other replica — still ready.
	cluster[1].stop()
	waitFor(t, 10*time.Second, "shard 1 unhealthy", func() bool {
		return !router.Status()[1].Healthy
	})
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz with one dead shard but full cell coverage: %d %q", rec.Code, rec.Body.String())
	}

	// Killing the placement-adjacent shard 2 uncovers cell 1 (replicas 1,2).
	// A healthy shard remains, so the old any-shard-healthy readiness would
	// still say ok — it must not.
	cluster[2].stop()
	waitFor(t, 10*time.Second, "shard 2 unhealthy", func() bool {
		return !router.Status()[2].Healthy
	})
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with cell 1 uncovered: %d %q (healthy shards remain, but readiness is coverage)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "cell") {
		t.Fatalf("/readyz 503 body names no cell: %q", rec.Body.String())
	}
	// 25ms probe interval rounds up to the minimum whole second.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("/readyz Retry-After = %q, want \"1\"", got)
	}

	// The degraded data path carries the same derived hint.
	rec = get("/range?lo=0,0&hi=1,1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/range over an uncovered cell: %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("degraded /range Retry-After = %q, want \"1\"", got)
	}
}

// TestFrontEndParity sends the same requests to the single-server handler
// and to the router handler fronting that same server as a 1-shard cluster:
// every request must draw the same status from both, and every read the
// same data payload (the batch / fanout block is each front-end's own, and
// item lists are compared as sets: the server answers in tree order, the
// router in canonical order). The two handlers share their query parsing
// (internal/httpapi); this pins that no endpoint quietly grows a
// front-end-specific rule. Writes are compared by status only — both
// front-ends mutate the one service underneath, so the second to run sees
// the first's effect. /lookup is the one read that differs by design: the
// server returns the whole leaf the point falls in, the router only the
// items stored at exactly p, so there the router's items must be among the
// server's.
func TestFrontEndParity(t *testing.T) {
	const dim = 2
	part, err := shard.NewUniformPartition(dim, 1, unitBox())
	if err != nil {
		t.Fatal(err)
	}
	s := startShard(t, dim, 1, "", "127.0.0.1:0")
	defer s.stop()
	router, err := shard.NewRouter(part, []string{s.addr}, shard.Config{
		Timeout:       2 * time.Second,
		ProbeInterval: 25 * time.Millisecond,
		SweepInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	items := tieHeavyItems()
	if acked, err := router.BatchUpdate(context.Background(), false, items); err != nil || acked != len(items) {
		t.Fatalf("seeding: acked %d/%d, err %v", acked, len(items), err)
	}
	stored := fmt.Sprintf("%g,%g", items[7].P[0], items[7].P[1])
	front := map[string]http.Handler{"serve": serve.NewHandler(s.svc), "shard": shard.NewHandler(router)}

	// payload is a reply minus its batch / fanout block: keys sorted, item
	// lists sorted by id.
	payload := func(body []byte) map[string]any {
		var fields map[string]any
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Errorf("undecodable reply: %s", body)
		}
		delete(fields, "batch")
		delete(fields, "fanout")
		for _, key := range []string{"items", "matches"} {
			if list, ok := fields[key].([]any); ok {
				sort.Slice(list, func(i, j int) bool {
					return list[i].(map[string]any)["id"].(float64) < list[j].(map[string]any)["id"].(float64)
				})
			}
		}
		return fields
	}
	for _, tc := range []struct {
		method, url string
		want        int
	}{
		{"GET", "/knn?p=0.5,0.5&k=3", 200},
		{"GET", "/knn?p=0.5,0.5", 200}, // k defaults to 1
		{"GET", "/knn", 400},
		{"GET", "/knn?p=0.5,abc&k=3", 400},
		{"GET", "/knn?p=0.5,0.5&k=three", 400},
		{"GET", "/knn?p=0.5,0.5&k=0", 400},
		{"GET", "/lookup?p=" + stored, 200},
		{"GET", "/lookup", 400},
		{"GET", "/lookup?p=", 400},
		{"GET", "/range?lo=0.2,0.2&hi=0.6,0.7", 200},
		{"GET", "/range?lo=0.2,0.2", 400},
		{"GET", "/range?lo=0.2,0.2&hi=0.6", 400},     // lo/hi of different dimension
		{"GET", "/range?lo=0.5,0.5&hi=0.1,0.9", 400}, // inverted
		{"GET", "/range?lo=0.2,x&hi=0.6,0.7", 400},
		{"GET", "/join?p=0.5,0.5&r=0.1", 200},
		{"GET", "/join?p=0.5,0.5", 400},
		{"GET", "/join?p=0.5,0.5&r=wide", 400},
		{"GET", "/aggregate?lo=0.2,0.2&hi=0.6,0.7", 200},
		{"GET", "/aggregate?lo=0.9,0.9&hi=0.95,0.95", 200},
		{"GET", "/aggregate?lo=0.2,0.2&hi=0.6", 400},
		{"GET", "/aggregate?lo=0.5,0.5&hi=0.1,0.9", 400},
		{"POST", "/insert?id=9001&p=0.31,0.62&priority=2.5", 200},
		{"POST", "/insert?p=0.31,0.62", 400},
		{"POST", "/insert?id=nine&p=0.31,0.62", 400},
		{"POST", "/insert?id=99999999999&p=0.31,0.62", 400}, // id overflows int32
		{"POST", "/insert?id=9002", 400},
		{"POST", "/insert?id=9002&p=0.31,0.62&priority=high", 400},
		{"POST", "/delete?id=9001&p=0.31,0.62", 200},
		{"POST", "/delete?id=9001", 400},
		{"POST", "/ingest?id=9003&p=0.4,0.4&expire_at=1000", 200},
		{"POST", "/ingest?id=9003&p=0.4,0.4", 400},
		{"POST", "/ingest?id=9003&p=0.4,0.4&expire_at=soon", 400},
		{"POST", "/expire?now=2000", 200},
		{"POST", "/expire", 400},
		{"POST", "/expire?now=later", 400},
		{"GET", "/insert?id=9001&p=0.31,0.62", 405},
		{"GET", "/delete?id=9001&p=0.31,0.62", 405},
		{"GET", "/ingest?id=9003&p=0.4,0.4&expire_at=1000", 405},
		{"GET", "/expire?now=2000", 405},
	} {
		got := map[string]map[string]any{}
		for name, h := range front {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.url, nil))
			if rec.Code != tc.want {
				t.Errorf("%s %s on %s: status %d, want %d (%s)", tc.method, tc.url, name, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}
			if rec.Code == http.StatusOK && tc.method == "GET" {
				got[name] = payload(rec.Body.Bytes())
			}
		}
		if strings.HasPrefix(tc.url, "/lookup") && tc.want == http.StatusOK {
			leaf, _ := json.Marshal(got["serve"]["items"])
			exact, _ := got["shard"]["items"].([]any)
			if len(exact) == 0 {
				t.Errorf("%s: router found nothing at a stored point", tc.url)
			}
			for _, it := range exact {
				if one, _ := json.Marshal(it); !strings.Contains(string(leaf), string(one)) {
					t.Errorf("%s: router item %s is not in the server's leaf %s", tc.url, one, leaf)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got["serve"], got["shard"]) {
			t.Errorf("%s %s: payloads differ\n serve %v\n shard %v", tc.method, tc.url, got["serve"], got["shard"])
		}
	}
}
