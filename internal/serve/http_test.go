package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pimkd/internal/httpapi"
)

func TestHTTPHandler(t *testing.T) {
	svc, pts := newTestService(t, 300, Config{MaxBatch: 16, MaxLinger: time.Millisecond})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, buf.String())
		}
		return []byte(buf.String())
	}

	// kNN round trip: query at a stored point, nearest neighbor is itself.
	q := pts[7]
	var knnResp struct {
		Neighbors []Neighbor `json:"neighbors"`
		Batch     BatchInfo  `json:"batch"`
	}
	body := get(fmt.Sprintf("/knn?p=%g,%g&k=2", q[0], q[1]))
	if err := json.Unmarshal(body, &knnResp); err != nil {
		t.Fatalf("knn decode: %v in %s", err, body)
	}
	if len(knnResp.Neighbors) != 2 || knnResp.Neighbors[0].ID != 7 || !almostEqual(knnResp.Neighbors[0].Dist, 0) {
		t.Fatalf("knn response %+v", knnResp)
	}
	if knnResp.Batch.Size < 1 || knnResp.Batch.Kind != "knn" {
		t.Fatalf("knn batch info %+v", knnResp.Batch)
	}

	// Insert via POST, then lookup must see it.
	resp, err := http.PostForm(ts.URL+"/insert", url.Values{"id": {"4242"}, "p": {"0.31,0.62"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	var lookupResp struct {
		Items []httpapi.Item `json:"items"`
		Batch BatchInfo      `json:"batch"`
	}
	if err := json.Unmarshal(get("/lookup?p=0.31,0.62"), &lookupResp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range lookupResp.Items {
		if it.ID == 4242 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted item missing from lookup: %+v", lookupResp.Items)
	}

	// Range with an inverted box is a 400; GET on /insert is a 405.
	if resp, _ := http.Get(ts.URL + "/range?lo=0.5,0.5&hi=0.1,0.9"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted box status %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/insert?id=1&p=0.1,0.1"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET insert status %d", resp.StatusCode)
	}

	// /statsz reflects the traffic above.
	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/statsz"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TotalRequests < 3 || snap.MaxBatch != 16 {
		t.Fatalf("statsz %+v", snap)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
