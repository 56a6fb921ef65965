package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
)

// backend is the boundary a serving workload sends its requests through:
// one serve.Service, or a shard.Router in front of three.
type backend interface {
	knn(ctx context.Context, q geom.Point) ([]neighbour, serve.BatchInfo, error)
	rangeQ(ctx context.Context, b geom.Box) ([]core.Item, serve.BatchInfo, error)
	lookup(ctx context.Context, p geom.Point) ([]core.Item, serve.BatchInfo, error)
	insert(ctx context.Context, it core.Item) (serve.BatchInfo, error)
	del(ctx context.Context, it core.Item) (serve.BatchInfo, error)
	// sqrtDist: kNN answers carry sqrt(dist2), not dist2.
	sqrtDist() bool
	// exactLookup: a lookup returns exactly the items at the point, not the
	// whole leaf bucket that holds it.
	exactLookup() bool
}

type serviceBackend struct{ svc *serve.Service }

func (b serviceBackend) knn(ctx context.Context, q geom.Point) ([]neighbour, serve.BatchInfo, error) {
	nbs, info, err := b.svc.KNN(ctx, q, knnK)
	out := make([]neighbour, len(nbs))
	for i, n := range nbs {
		out[i] = neighbour{id: n.ID, d2: n.Dist}
	}
	return out, info, err
}
func (b serviceBackend) rangeQ(ctx context.Context, bx geom.Box) ([]core.Item, serve.BatchInfo, error) {
	return b.svc.Range(ctx, bx)
}
func (b serviceBackend) lookup(ctx context.Context, p geom.Point) ([]core.Item, serve.BatchInfo, error) {
	return b.svc.Lookup(ctx, p)
}
func (b serviceBackend) insert(ctx context.Context, it core.Item) (serve.BatchInfo, error) {
	return b.svc.Insert(ctx, it)
}
func (b serviceBackend) del(ctx context.Context, it core.Item) (serve.BatchInfo, error) {
	return b.svc.Delete(ctx, it)
}
func (serviceBackend) sqrtDist() bool    { return true }
func (serviceBackend) exactLookup() bool { return false }

// stack is a booted system under test.
type stack struct {
	be       backend
	services []*serve.Service
	// finish runs the workload's own end-of-run checks and layer metrics
	// after the stored-set check; it may shut the stack down.
	finish func(res *passResult, sv *servingRun)
	close  func()
}

// hooks are the observation points a stack installs while booting; an
// untraced pass (tr == nil) installs none.
type hooks struct {
	tr        *tracer
	roundLogs []*roundLog
	batchLogs []*batchLog
}

// newService creates a service on tree with the shipped defaults, hooked
// for tracing when the pass is traced.
func (h *hooks) newService(cfg serve.Config, tree *core.Tree) *serve.Service {
	cfg.MaxBatch, cfg.MaxLinger = maxBatch, maxLinger
	if h.tr != nil {
		track := int32(len(h.roundLogs) + 1)
		h.roundLogs = append(h.roundLogs, h.tr.observe(tree.Machine(), track))
		bl := &batchLog{t: h.tr}
		h.batchLogs = append(h.batchLogs, bl)
		cfg.OnBatch = bl.onBatch
	}
	return serve.New(cfg, tree)
}

// servingRun is the state of one serving pass.
type servingRun struct {
	e     *env
	spec  servingSpec
	in    *inputs
	plan  *requestPlan
	st    *stack
	hooks *hooks
	pool  int
	// loadSeconds is how long the boot spent loading the index.
	loadSeconds float64

	acked   []atomic.Bool // per insert sequence number
	deleted []atomic.Bool // per FIFO position
	samples []sample
	// reqBatch is each request's batch, traced pass only.
	reqBatch []batchKey
	phases   []*phaseLog
}

// sample is a read request kept for the oracle.
type sample struct {
	kind  uint8
	q     geom.Point
	box   geom.Box
	nbs   []neighbour
	items []core.Item
}

// fifoItem is the item at position pos of the delete FIFO.
func (sv *servingRun) fifoItem(pos int) core.Item {
	if pos < sv.pool {
		id := sv.in.stable + pos
		return core.Item{P: sv.in.point(id), ID: int32(id)}
	}
	return sv.in.freshItem(tagFresh, pos-sv.pool)
}

// volatileItem resolves an id outside the stable set to the coordinates
// this run could have stored under it.
func (sv *servingRun) volatileItem(id int32) (geom.Point, bool) {
	switch {
	case int(id) >= sv.in.stable && int(id) < sv.in.n:
		return sv.in.point(int(id)), true
	case int(id) >= sv.in.n && int(id)-sv.in.n < sv.plan.inserts:
		return sv.in.freshItem(tagFresh, int(id)-sv.in.n).P, true
	}
	return nil, false
}

var errStaleDelete = errors.New("delete target was never acknowledged")

// do sends request i of the plan.
func (sv *servingRun) do(i int) error {
	ctx := context.Background()
	r := newRNG(sv.in.seed, tagRequest, uint64(i))
	keep := i%oracleEvery == 0
	var info serve.BatchInfo
	var err error
	switch kind := sv.plan.kinds[i]; kind {
	case kindKNN:
		q := sv.in.jittered(r)
		var nbs []neighbour
		nbs, info, err = sv.st.be.knn(ctx, q)
		if keep && err == nil {
			sv.samples[i/oracleEvery] = sample{kind: kind, q: q, nbs: nbs}
		}
	case kindRange:
		b := randomBox(r)
		var items []core.Item
		items, info, err = sv.st.be.rangeQ(ctx, b)
		if keep && err == nil {
			sv.samples[i/oracleEvery] = sample{kind: kind, box: b, items: items}
		}
	case kindLookup:
		q := sv.in.point(r.intn(sv.in.stable)).Clone()
		var items []core.Item
		items, info, err = sv.st.be.lookup(ctx, q)
		if keep && err == nil {
			sv.samples[i/oracleEvery] = sample{kind: kind, q: q, items: items}
		}
	case kindInsert:
		seq := int(sv.plan.target[i])
		info, err = sv.st.be.insert(ctx, sv.in.freshItem(tagFresh, seq))
		if err == nil {
			sv.acked[seq].Store(true)
		}
	case kindDelete:
		pos := int(sv.plan.target[i])
		if pos >= sv.pool {
			// The insert this delete targets was issued thousands of
			// requests ago; wait out the rare case it is still in flight.
			deadline := time.Now().Add(10 * time.Second)
			for !sv.acked[pos-sv.pool].Load() {
				if time.Now().After(deadline) {
					return errStaleDelete
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		info, err = sv.st.be.del(ctx, sv.fifoItem(pos))
		if err == nil {
			sv.deleted[pos].Store(true)
		}
	}
	if sv.reqBatch != nil && err == nil {
		sv.reqBatch[i] = keyOfInfo(info)
	}
	return err
}

// ledger is the set the system must hold once every request has returned:
// the initial points, plus acknowledged inserts, minus acknowledged deletes.
func (sv *servingRun) ledger() map[int32]geom.Point {
	want := make(map[int32]geom.Point, sv.in.n)
	for i := 0; i < sv.in.stable; i++ {
		want[int32(i)] = sv.in.point(i)
	}
	for pos := 0; pos < sv.pool+sv.plan.inserts; pos++ {
		if pos >= sv.pool && !sv.acked[pos-sv.pool].Load() {
			continue
		}
		if pos < len(sv.deleted) && sv.deleted[pos].Load() {
			continue
		}
		it := sv.fifoItem(pos)
		want[it.ID] = it.P
	}
	return want
}

// checkSamples runs the oracle over the kept read answers.
func (sv *servingRun) checkSamples(res *passResult) {
	writes := sv.spec.mix[kindInsert]+sv.spec.mix[kindDelete] > 0
	for _, s := range sv.samples {
		if s.q == nil && s.box.Lo == nil {
			continue // a write, or a failed read already counted
		}
		res.OracleChecks++
		switch s.kind {
		case kindKNN:
			if writes {
				res.oracleFail(sv.in.checkKNNChurn(s.q, s.nbs, sv.st.be.sqrtDist(), sv.volatileItem))
			} else {
				res.oracleFail(sv.in.checkKNNExact(s.q, s.nbs, sv.st.be.sqrtDist()))
			}
		case kindRange:
			if writes {
				res.oracleFail(sv.in.checkRange(s.box, s.items, sv.in.stable, sv.volatileItem))
			} else {
				res.oracleFail(sv.in.checkRange(s.box, s.items, sv.in.n, nil))
			}
		case kindLookup:
			res.oracleFail(sv.checkLookup(s))
		}
	}
}

// checkLookup: the stable point asked for must come back, with its stored
// coordinates; a router lookup returns nothing else.
func (sv *servingRun) checkLookup(s sample) error {
	found := false
	for _, it := range s.items {
		if int(it.ID) < sv.in.stable && sv.in.point(int(it.ID)).Equal(s.q) && it.P.Equal(s.q) {
			found = true
		} else if sv.st.be.exactLookup() {
			return fmt.Errorf("lookup %v: unexpected item %d at %v", s.q, it.ID, it.P)
		}
	}
	if !found {
		return fmt.Errorf("lookup %v: the stored point is missing from %d returned items", s.q, len(s.items))
	}
	return nil
}

// loadSegments is how many closed-loop and open-loop segments alternate.
const loadSegments = 5

// share is segment seg's part of n requests split into loadSegments.
func share(n, seg int) int { return n*(seg+1)/loadSegments - n*seg/loadSegments }

// latencies returns, in request order, the successful latencies of the
// open-loop (or closed-loop) segments for the requests keep selects.
func (sv *servingRun) latencies(open bool, keep func(i int) bool) []int64 {
	var out []int64
	for _, ph := range sv.phases {
		if ph.open() == open {
			out = append(out, ph.latencies(keep)...)
		}
	}
	return out
}

// closedRate is the completed requests per second of the closed-loop
// segments for the requests keep selects: the median over the segments, so
// one segment that a noisy neighbour slowed does not set the number.
func (sv *servingRun) closedRate(keep func(i int) bool) float64 {
	var rates []float64
	for _, ph := range sv.phases {
		if !ph.open() {
			rates = append(rates, float64(len(ph.latencies(keep)))/ph.wall.Seconds())
		}
	}
	return medianFloat(rates)
}

// lateness returns how late every open-loop arrival was dispatched.
func (sv *servingRun) lateness() []int64 {
	var out []int64
	for _, ph := range sv.phases {
		if ph.open() {
			out = append(out, ph.lateNS...)
		}
	}
	return out
}

// bootFunc boots the system under test for one set-up.
type bootFunc func(sv *servingRun) (*stack, error)

// runServing is the pass shared by the three serving workloads: set-up
// (repeated, median reported), Phase A closed loop for capacity, Phase B
// open loop at the frozen rate for latency, then the end-of-run checks.
func runServing(e *env, name string, boot bootFunc) *passResult {
	res := newPassResult(name, e.tr != nil)
	spec := servingSpecs[name]
	nA := e.sz.count(spec.closedPerS, 2*closedCallers)
	nB := e.sz.count(spec.openRate*spec.openSeconds, 1000)
	writes := spec.mix[kindInsert]+spec.mix[kindDelete] > 0

	nSetups := e.sz.setups
	if spec.maxSetups > 0 && nSetups > spec.maxSetups {
		nSetups = spec.maxSetups
	}
	var sv *servingRun
	var setups, loads []float64
	for s := 0; s < nSetups; s++ {
		if sv != nil {
			sv.st.close()
		}
		sv = nil
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		t0 := time.Now()
		in := newInputs(e.seed, e.sz.n)
		sv = &servingRun{e: e, spec: spec, in: in, hooks: &hooks{tr: e.tr}}
		if writes {
			sv.pool = primedPool
			if sv.pool > in.n/4 {
				sv.pool = in.n / 4
			}
			in.stable = in.n - sv.pool
		}
		sv.plan = in.plan(spec.mix, nA+nB)
		st, err := boot(sv)
		if err != nil {
			res.oracleFail(fmt.Errorf("set-up: %w", err))
			res.Failed, res.Attempted = 1, 1
			return res
		}
		sv.st = st
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, sv.loadSeconds)
	}
	defer func() {
		if sv.st.close != nil {
			sv.st.close()
		}
	}()
	res.set("setup_s", medianFloat(setups), len(setups))
	res.set("build_pts_per_s", float64(sv.in.n)/medianFloat(loads), len(loads))
	sv.acked = make([]atomic.Bool, sv.plan.inserts)
	sv.deleted = make([]atomic.Bool, sv.pool+sv.plan.inserts)
	sv.samples = make([]sample, (nA+nB)/oracleEvery+1)
	if e.tr != nil {
		sv.reqBatch = make([]batchKey, nA+nB)
	}
	// Phase A and Phase B alternate in loadSegments segments each, so both
	// sample the machine across the whole run rather than one stretch of it
	// (see the same remark in runTreeBatch).
	for seg, first := 0, 0; seg < loadSegments; seg++ {
		a, b := share(nA, seg), share(nB, seg)
		sv.phases = append(sv.phases, newPhaseLog("closed_loop", first, a), newPhaseLog("open_loop", first+a, b))
		first += a + b
	}
	arrivals := newRNG(e.seed, tagArrivals)
	res.set("heap_live_mb", heapLiveMB(), 1)

	// Set-up traffic (cluster seeding) is not part of the measured counts.
	preMetrics := make([]serve.MetricsSnapshot, len(sv.st.services))
	for i, svc := range sv.st.services {
		preMetrics[i] = svc.Metrics()
	}
	for _, l := range sv.hooks.roundLogs {
		l.drain()
	}

	hostStart := takeHost()
	for _, ph := range sv.phases {
		if ph.open() {
			runOpen(ph, spec.openRate, arrivals, sv.do)
		} else {
			runClosed(ph, closedCallers, sv.do)
		}
	}
	hostEnd := takeHost()

	// Every request has returned; the stored set must equal the ledger.
	stored, _, err := sv.st.be.rangeQ(context.Background(), everything())
	if err != nil {
		res.oracleFail(fmt.Errorf("reading back the stored set: %w", err))
	} else {
		res.oracleFail(checkStoredSet(name+" after drain", stored, sv.ledger()))
	}
	res.OracleChecks++
	sv.checkSamples(res)

	isRead := func(i int) bool { return !isWrite(sv.plan.kinds[i]) }
	isKNN := func(i int) bool { return sv.plan.kinds[i] == kindKNN }
	isWr := func(i int) bool { return isWrite(sv.plan.kinds[i]) }
	closed, open := phaseCount{Name: "closed_loop"}, phaseCount{Name: "open_loop"}
	var dropped int64
	for _, ph := range sv.phases {
		pc := &closed
		if ph.open() {
			pc = &open
		}
		n := int64(len(ph.latNS))
		pc.Attempted += n
		pc.Failed += ph.failed + ph.dropped
		pc.Succeeded += n - ph.failed - ph.dropped
		pc.WallS += ph.wall.Seconds()
		dropped += ph.dropped
	}
	res.Phases = []phaseCount{closed, open}
	res.Attempted, res.Failed = closed.Attempted+open.Attempted, closed.Failed+open.Failed
	all := func(int) bool { return true }
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	res.set("capacity_rps", sv.closedRate(all), loadSegments)
	res.set("knn_q_per_s", sv.closedRate(isKNN), loadSegments)
	latency := func(p50, p99 string, keep func(int) bool) {
		lat := sv.latencies(true, keep)
		if len(lat) == 0 {
			return
		}
		res.set(p50, ms(quantile(sortedCopy(lat), 0.5)), len(lat))
		v, per := windowedP99(lat)
		res.set(p99, ms(v), per)
	}
	latency("read_p50_ms", "read_p99_ms", isRead)
	latency("write_p50_ms", "write_p99_ms", isWr)
	if writes {
		res.set("update_ops_per_s", sv.closedRate(isWr), loadSegments)
	}
	res.hostMetrics(hostStart, hostEnd, res.Attempted)

	late := sortedCopy(sv.lateness())
	res.set("gen.late_p99_ms", ms(quantile(late, 0.99)), len(late))
	res.set("gen.dropped", float64(dropped), nB)
	if dropped > 0 {
		res.invalidate(fmt.Sprintf("the open-loop generator dropped %d arrivals at the in-flight cap of %d", dropped, inflightCap))
	}
	if l := ms(quantile(late, 0.5)); l > lateLimitMS {
		res.invalidate(fmt.Sprintf("the open-loop generator could not keep its schedule: median lateness %.3f ms > %.1f ms", l, lateLimitMS))
	}

	sv.serveMetrics(res, preMetrics)
	if e.tr != nil {
		sv.tracedMetrics(res)
	}
	if sv.st.finish != nil {
		sv.st.finish(res, sv)
	}
	return res
}

// serveMetrics fills the pim.* counts and the serve.* counts from
// Machine.Stats and Service.Metrics, summed over the stack's services and
// net of what set-up caused.
func (sv *servingRun) serveMetrics(res *passResult, pre []serve.MetricsSnapshot) {
	var cost pim.Stats
	var batches, requests, full, retries, sheds int64
	var lingerUS float64
	var knnCost pim.Stats
	var knnReqs, knnBatches, updReqs int64
	var updCost pim.Stats
	for i, svc := range sv.st.services {
		m := svc.Metrics()
		cost = cost.Add(m.Machine.Sub(pre[i].Machine))
		retries += m.Robustness.BatchRetries - pre[i].Robustness.BatchRetries
		sheds += m.Robustness.Sheds - pre[i].Robustness.Sheds
		before := map[string]serve.KindStats{}
		for _, k := range pre[i].Kinds {
			before[k.Kind] = k
		}
		for _, k := range m.Kinds {
			b := before[k.Kind]
			nb := k.Batches - b.Batches
			batches += nb
			requests += k.Requests - b.Requests
			full += k.SealedFull - b.SealedFull
			lingerUS += k.MeanLinger*float64(k.Batches) - b.MeanLinger*float64(b.Batches)
			switch k.Kind {
			case "knn":
				knnCost = knnCost.Add(k.Cost.Sub(b.Cost))
				knnReqs += k.Requests - b.Requests
				knnBatches += nb
			case "insert", "delete":
				updCost = updCost.Add(k.Cost.Sub(b.Cost))
				updReqs += k.Requests - b.Requests
			}
		}
	}
	res.setPimTotals(cost)
	res.set("pim.comm_imbalance", commImbalance(knnCost), 0)
	res.set("serve.batches", float64(batches), 0)
	if batches > 0 {
		res.set("serve.mean_batch_size", float64(requests)/float64(batches), int(batches))
		res.set("serve.sealed_full_share", float64(full)/float64(batches), int(batches))
		res.set("serve.mean_linger_us", lingerUS/float64(batches), int(batches))
	}
	res.set("serve.sheds", float64(sheds), 0)
	res.set("serve.batch_retries", float64(retries), 0)
	if knnReqs > 0 {
		res.set("core.words_per_knn_q", float64(knnCost.Communication)/float64(knnReqs), int(knnReqs))
		res.set("core.rounds_per_knn_batch", float64(knnCost.Rounds)/float64(knnBatches), int(knnBatches))
	}
	if updReqs > 0 {
		res.set("core.words_per_update_op", float64(updCost.Communication)/float64(updReqs), int(updReqs))
	}
}

// weighted is a value carried by weight requests.
type weighted struct {
	v int64
	w int
}

// weightedMedian is the median of the multiset in which each value appears
// weight times.
func weightedMedian(ws []weighted) int64 {
	if len(ws) == 0 {
		return 0
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].v < ws[j].v })
	total := 0
	for _, x := range ws {
		total += x.w
	}
	acc := 0
	for _, x := range ws {
		acc += x.w
		if 2*acc >= total {
			return x.v
		}
	}
	return ws[len(ws)-1].v
}

// tracedMetrics joins the recorded rounds, batches and requests into spans,
// the wall-time splits of the per-layer metrics, and the budget table.
func (sv *servingRun) tracedMetrics(res *passResult) {
	tr := sv.e.tr
	byKey := map[batchKey]*batchRec{}
	var roundWall, execWall int64
	var nrounds int
	selfByKind := map[string][]weighted{}
	var execNS []int64
	var execs, selfs, rounds []weighted
	for i, bl := range sv.hooks.batchLogs {
		rl := sv.hooks.roundLogs[i]
		for k, b := range bl.join(rl.drain(), rl.track) {
			byKey[k] = b
			if b.nround == 0 {
				continue
			}
			roundWall += b.rounds
			execWall += b.exec()
			nrounds += b.nround
			self := b.exec() - b.rounds
			selfByKind[k.kind] = append(selfByKind[k.kind], weighted{self, 1})
			execNS = append(execNS, b.exec())
			execs = append(execs, weighted{b.exec(), k.size})
			selfs = append(selfs, weighted{self, k.size})
			rounds = append(rounds, weighted{b.rounds, k.size})
		}
	}
	if nrounds == 0 {
		return
	}
	res.set("serve.exec_ms_p50", ms(medianInt(execNS)), len(execNS))
	res.set("pim.round_wall_ms", ms(roundWall), nrounds)
	res.set("pim.round_wall_share", float64(roundWall)/float64(execWall), nrounds)
	res.set("pim.round_overhead_us", us(roundWall)/float64(nrounds), nrounds)
	for kind, name := range map[string]string{"knn": "core.knn_self_ms", "range": "core.range_self_ms"} {
		if ws := selfByKind[kind]; len(ws) > 0 {
			res.set(name, ms(weightedMedian(ws)), len(ws))
		}
	}
	if ws := append(selfByKind["insert"], selfByKind["delete"]...); len(ws) > 0 {
		res.set("core.update_self_ms", ms(weightedMedian(ws)), len(ws))
	}

	// Per request (open loop): latency from the due time splits into how late
	// the generator dispatched it, the batch's execution, and the rest —
	// admission queue, linger, the WAL append of a durable write, reply
	// fan-out, and for a router everything outside the shards.
	var lats, waits []int64
	for _, ph := range sv.phases {
		if !ph.open() {
			continue
		}
		for i, lat := range ph.latNS {
			if lat < 0 {
				continue
			}
			lats = append(lats, lat)
			b := byKey[sv.reqBatch[ph.first+i]]
			if b == nil || b.nround == 0 {
				continue
			}
			waits = append(waits, lat-ph.lateNS[i]-b.exec())
		}
	}
	lateP50 := medianInt(sv.lateness())
	for _, ph := range sv.phases {
		for i, lat := range ph.latNS {
			if lat < 0 || i%requestSpanStride != 0 {
				continue
			}
			parent := int32(0)
			if b := byKey[sv.reqBatch[ph.first+i]]; b != nil {
				parent = b.spanID
			}
			at := tr.since(ph.start) + ph.startNS[i]
			tr.add(span{Name: kindNames[sv.plan.kinds[ph.first+i]], Cat: "request", Start: at, End: at + lat, Parent: parent, Track: 100})
		}
	}
	reqP50 := float64(medianInt(lats))
	budget := []budgetRow{{Layer: "generator lateness", MS: ms(lateP50)}}
	if len(waits) > 0 {
		res.set("serve.wait_ms_p50", ms(medianInt(waits)), len(waits))
		budget = append(budget, budgetRow{Layer: "serve wait", MS: ms(medianInt(waits))})
	} else {
		// Behind a router the caller cannot see which shard batch carried
		// its request: what is not execution is router, wire and wait.
		rest := reqP50 - float64(lateP50) - float64(weightedMedian(execs))
		budget = append(budget, budgetRow{Layer: "shard + serve wait", MS: rest / 1e6})
	}
	budget = append(budget,
		budgetRow{Layer: "core self", MS: ms(weightedMedian(selfs))},
		budgetRow{Layer: "pim rounds", MS: ms(weightedMedian(rounds))})
	var sum float64
	for i := range budget {
		budget[i].Share = budget[i].MS * 1e6 / reqP50
		sum += budget[i].MS
	}
	budget = append(budget, budgetRow{Layer: "unattributed", MS: reqP50/1e6 - sum, Share: 1 - sum*1e6/reqP50})
	budget = append(budget, budgetRow{Layer: "request p50", MS: reqP50 / 1e6, Share: 1})
	res.Budget = budget
	if math.IsNaN(reqP50) || reqP50 <= 0 {
		res.Budget = nil
	}
}
