package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

// The layer ladder sends the same requests through each successive
// boundary of one stack over one data set — core.Tree → serve.Service →
// shard.Client against a listener → a one-shard shard.Router → the router's
// HTTP handler through an in-memory recorder — at concurrency 1 (unloaded:
// every request pays the full linger) and 64. The difference between two
// neighbouring rungs is what the upper layer adds.

// Ladder request counts per second of --seconds (the traced pass then runs
// a third of them). ISSUE 13 asks for 2000 per rung; at concurrency 1 every
// request through the service waits out the 2 ms linger, so that many on
// four rungs and two kinds would take longer than a whole run may.
const (
	ladderC1PerS  = 30
	ladderC64PerS = 300
)

// ladderRung is one boundary's request p50 at both concurrencies.
type ladderRung struct {
	Boundary string  `json:"boundary"`
	Kind     string  `json:"kind"`
	C1US     float64 `json:"p50_us_c1"`
	C64US    float64 `json:"p50_us_c64"`
	Requests int     `json:"requests_c1"`
}

// timeRung runs n calls at concurrency c and returns the p50 latency.
func timeRung(n, c int, call func(i int) error) (int64, error) {
	lat := make([]int64, n)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				if err := call(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
				lat[i] = int64(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return medianInt(lat), nil
}

// runLadder builds the ladder stack on its own copy of the data and fills
// the ladder metrics. full climbs past the service into the shard layer;
// serve_read stops at the service.
func runLadder(e *env, res *passResult, in *inputs, full bool) {
	ctx := context.Background()
	n1 := e.sz.count(ladderC1PerS, 30)
	n64 := e.sz.count(ladderC64PerS, 256)
	queries := in.knnQueries(1<<30, n64)
	fresh := func(rung, i int) core.Item { return in.freshItem(tagLadder, rung<<24|i) }
	fail := func(what string, err error) {
		res.Notes = append(res.Notes, fmt.Sprintf("ladder %s: %v", what, err))
	}

	mach := pim.NewMachine(modulesP, cacheWords)
	tree := core.New(treeConfig(), mach)
	tree.Build(in.items())

	// Rung 0: the tree itself, one caller, at the batch width the service
	// forms — 1 unloaded, up to 64 when 64 callers wait together.
	var coreKNN, coreIns [2]int64
	for j, width := range []int{1, 64} {
		var kn, ins []int64
		for i := 0; i < n1 && (i+1)*width <= len(queries); i++ {
			t0 := time.Now()
			tree.KNN(queries[i*width:(i+1)*width], knnK)
			kn = append(kn, int64(time.Since(t0)))
		}
		for i := 0; i < n1; i++ {
			items := make([]core.Item, width)
			for w := range items {
				items[w] = fresh(j, i*width+w)
			}
			t0 := time.Now()
			tree.BatchInsert(items)
			ins = append(ins, int64(time.Since(t0)))
			tree.BatchDelete(items)
		}
		coreKNN[j], coreIns[j] = medianInt(kn), medianInt(ins)
	}
	rungs := []ladderRung{
		{Boundary: "core.Tree", Kind: "knn", C1US: us(coreKNN[0]), C64US: us(coreKNN[1]), Requests: n1},
		{Boundary: "core.Tree", Kind: "insert", C1US: us(coreIns[0]), C64US: us(coreIns[1]), Requests: n1},
	}

	svc := serve.New(serve.Config{MaxBatch: maxBatch, MaxLinger: maxLinger, Seed: programSeed}, tree)
	defer svc.Close()
	// climb measures one boundary with both kinds at both concurrencies.
	climb := func(name string, rung int, knn func(q geom.Point) error, insert func(it core.Item) error) (kn, ins [2]int64, ok bool) {
		for j, c := range []int{1, 64} {
			n := n1
			if c == 64 {
				n = n64
			}
			var err error
			if kn[j], err = timeRung(n, c, func(i int) error { return knn(queries[i]) }); err != nil {
				fail(name+" knn", err)
				return kn, ins, false
			}
			if ins[j], err = timeRung(n, c, func(i int) error { return insert(fresh(rung*2+j, i)) }); err != nil {
				fail(name+" insert", err)
				return kn, ins, false
			}
		}
		rungs = append(rungs,
			ladderRung{Boundary: name, Kind: "knn", C1US: us(kn[0]), C64US: us(kn[1]), Requests: n1},
			ladderRung{Boundary: name, Kind: "insert", C1US: us(ins[0]), C64US: us(ins[1]), Requests: n1})
		return kn, ins, true
	}
	defer func() { res.Ladder = rungs }()

	svcKNN, _, ok := climb("serve.Service", 1,
		func(q geom.Point) error { _, _, err := svc.KNN(ctx, q, knnK); return err },
		func(it core.Item) error { _, err := svc.Insert(ctx, it); return err })
	if !ok {
		return
	}
	res.set("serve.overhead_us_c1", us(svcKNN[0]-coreKNN[0]), n1)
	res.set("serve.overhead_us_c64", us(svcKNN[1]-coreKNN[1]), n64)
	if !full {
		return
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("listen", err)
		return
	}
	listener := serve.NewShardListener(svc, ln, nil, nil)
	defer listener.Close()
	client := shard.NewClient(ln.Addr().String(), dim)
	defer client.Close()
	cliKNN, _, ok := climb("shard.Client", 2,
		func(q geom.Point) error { _, err := client.KNN(ctx, []geom.Point{q}, knnK); return err },
		func(it core.Item) error { _, err := client.Update(ctx, false, []core.Item{it}); return err })
	if !ok {
		return
	}
	res.set("shard.client_rtt_us_c1", us(cliKNN[0]-svcKNN[0]), n1)

	part, err := shard.NewUniformPartition(dim, 1, unitBox())
	if err != nil {
		fail("partition", err)
		return
	}
	router, err := shard.NewRouter(part, []string{ln.Addr().String()}, shard.Config{Replication: 1})
	if err != nil {
		fail("router", err)
		return
	}
	defer router.Close()
	rtKNN, _, ok := climb("shard.Router", 3,
		func(q geom.Point) error { _, _, err := router.KNN(ctx, q, knnK); return err },
		func(it core.Item) error { _, err := router.Insert(ctx, it); return err })
	if !ok {
		return
	}
	res.set("shard.router_overhead_us_c1", us(rtKNN[0]-cliKNN[0]), n1)
	res.set("shard.router_overhead_us_c64", us(rtKNN[1]-cliKNN[1]), n64)

	handler := shard.NewHandler(router)
	serveHTTP := func(method, url string) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
		if rec.Code != http.StatusOK {
			body, _ := io.ReadAll(rec.Body)
			return fmt.Errorf("%s: status %d: %s", url, rec.Code, body)
		}
		return nil
	}
	coord := func(p geom.Point) string {
		return strconv.FormatFloat(p[0], 'g', -1, 64) + "," + strconv.FormatFloat(p[1], 'g', -1, 64)
	}
	httpKNN, _, ok := climb("shard.NewHandler", 4,
		func(q geom.Point) error { return serveHTTP("GET", "/knn?k="+strconv.Itoa(knnK)+"&p="+coord(q)) },
		func(it core.Item) error {
			return serveHTTP("POST", "/insert?id="+strconv.Itoa(int(it.ID))+"&p="+coord(it.P))
		})
	if !ok {
		return
	}
	res.set("shard.http_overhead_us_c1", us(httpKNN[0]-rtKNN[0]), n1)

	codecCost(res, queries[0])
}

// codecCost times the wire codec directly on a k = 8 kNN request/response
// pair: one EncodeFrame and one DecodePayload of each.
func codecCost(res *passResult, q geom.Point) {
	cands := make([]heapx.Candidate, knnK)
	for i := range cands {
		cands[i] = heapx.Candidate{Dist2: float64(i), ID: int32(i), P: q}
	}
	req := shard.KNNReq{K: knnK, Points: []geom.Point{q}}
	resp := shard.KNNResp{Results: [][]heapx.Candidate{cands}}
	const iters = 2000
	frames := [2][]byte{}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		frames[0] = shard.EncodeFrame(uint64(i), req, dim)
		frames[1] = shard.EncodeFrame(uint64(i), resp, dim)
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		for _, f := range frames {
			// A frame is an 8-byte length+CRC header, then the payload.
			if _, _, err := shard.DecodePayload(f[8:], dim); err != nil {
				res.Notes = append(res.Notes, "codec probe: "+err.Error())
				return
			}
		}
	}
	dec := time.Since(t0)
	res.set("shard.encode_ns", float64(enc)/iters, iters)
	res.set("shard.decode_ns", float64(dec)/iters, iters)
}

func printLadder(w io.Writer, rungs []ladderRung) {
	fmt.Fprintf(w, "  layer ladder (request p50, us; each rung adds the layer above the previous one):\n")
	fmt.Fprintf(w, "    %-18s %-7s %12s %12s\n", "boundary", "kind", "c=1", "c=64")
	for _, r := range rungs {
		fmt.Fprintf(w, "    %-18s %-7s %12.1f %12.1f\n", r.Boundary, r.Kind, r.C1US, r.C64US)
	}
}
