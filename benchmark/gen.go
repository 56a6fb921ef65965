package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// The benchmark keeps its own generator so that a change to
// internal/workload cannot change what is measured. Everything derives from
// the seed through splitmix64; request i of a phase is a pure function of
// (seed, phase, i), so concurrent callers need no shared generator state.

type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng { return &rng{s: mix(parts...)} }

// mix folds its arguments into one 64-bit stream key.
func mix(parts ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		h = splitmix(h ^ p)
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// Stream tags: one per kind of generated input.
const (
	tagPoints uint64 = iota + 1
	tagKNN
	tagHot
	tagRange
	tagChurn
	tagKinds
	tagRequest
	tagArrivals
	tagFresh
	tagLadder
	tagProbe
)

// inputs is the seeded data set: n uniform points in the unit square, ids
// 0..n-1. The first stable of them are never deleted; the remaining ones
// are the primed delete pool of the writing workloads.
type inputs struct {
	seed   uint64
	n      int
	stable int
	pts    []float64 // flat, dim coordinates per point
}

func newInputs(seed uint64, n int) *inputs {
	in := &inputs{seed: seed, n: n, stable: n, pts: make([]float64, n*dim)}
	r := newRNG(seed, tagPoints)
	for i := range in.pts {
		in.pts[i] = r.float()
	}
	return in
}

// point returns stored point i as a slice into the flat array. Callers must
// not write through it.
func (in *inputs) point(i int) geom.Point { return in.pts[i*dim : (i+1)*dim : (i+1)*dim] }

// items returns the data set as tree items sharing the flat coordinates.
func (in *inputs) items() []core.Item {
	out := make([]core.Item, in.n)
	for i := range out {
		out[i] = core.Item{P: in.point(i), ID: int32(i)}
	}
	return out
}

// jittered returns a query near a random stable stored point.
func (in *inputs) jittered(r *rng) geom.Point {
	src := in.point(r.intn(in.stable))
	q := make(geom.Point, dim)
	for d := range q {
		q[d] = src[d] + (r.float()-0.5)*2*jitter
	}
	return q
}

// knnQueries is batch b of the uniform-jitter kNN phase.
func (in *inputs) knnQueries(b, size int) []geom.Point {
	r := newRNG(in.seed, tagKNN, uint64(b))
	qs := make([]geom.Point, size)
	for i := range qs {
		qs[i] = in.jittered(r)
	}
	return qs
}

// hotQueries is batch b of the hot-spot phase: every query of the batch
// inside one hotSpotSide-wide box, the paper's adversarial skew. Each batch
// has its own box: what a hot spot costs depends on the leaf it lands in,
// and one box for the whole phase made knn_skew_q_per_s swing 2x with the
// seed.
func (in *inputs) hotQueries(b, size int) []geom.Point {
	r := newRNG(in.seed, tagHot, uint64(b))
	var centre [dim]float64
	for d := range centre {
		centre[d] = 0.1 + 0.8*r.float()
	}
	qs := make([]geom.Point, size)
	for i := range qs {
		q := make(geom.Point, dim)
		for d := range q {
			q[d] = centre[d] + (r.float()-0.5)*hotSpotSide
		}
		qs[i] = q
	}
	return qs
}

func randomBox(r *rng) geom.Box {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := range lo {
		lo[d] = r.float() * (1 - rangeSide)
		hi[d] = lo[d] + rangeSide
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// rangeBoxes is batch b of the range phase.
func (in *inputs) rangeBoxes(b, size int) []geom.Box {
	r := newRNG(in.seed, tagRange, uint64(b))
	boxes := make([]geom.Box, size)
	for i := range boxes {
		boxes[i] = randomBox(r)
	}
	return boxes
}

// freshItem is the item a run inserts under sequence number seq: a uniform
// point with an id above every initial id.
func (in *inputs) freshItem(tag uint64, seq int) core.Item {
	r := newRNG(in.seed, tag, uint64(seq))
	p := make(geom.Point, dim)
	for d := range p {
		p[d] = r.float()
	}
	return core.Item{P: p, ID: int32(in.n + seq)}
}

// churnItems is round b of the churn phase.
func (in *inputs) churnItems(b, size int) []core.Item {
	out := make([]core.Item, size)
	for i := range out {
		out[i] = in.freshItem(tagChurn, b*size+i)
	}
	return out
}

// Request kinds of the serving workloads.
const (
	kindKNN = iota
	kindRange
	kindLookup
	kindInsert
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"knn", "range", "lookup", "insert", "delete"}

func isWrite(kind uint8) bool { return kind == kindInsert || kind == kindDelete }

// requestPlan fixes the kind of every request of a serving workload and the
// target of every delete before the first request is sent, so the same seed
// gives the same requests whatever the timing.
//
// Deletes consume a FIFO of items: first the primed pool (initial points
// with id >= stable), then this run's inserts in request order. With
// primedPool items ahead, the insert a delete targets was issued thousands
// of requests earlier, so it has been acknowledged long before; the loop
// still waits for that acknowledgement rather than assume it.
type requestPlan struct {
	kinds []uint8
	// target[i] for a delete: the FIFO position it removes. For an insert:
	// its own insert sequence number. Unused for reads.
	target []int32
	// inserts is the number of insert requests.
	inserts int
}

func (in *inputs) plan(mixPct [numKinds]int, total int) *requestPlan {
	p := &requestPlan{kinds: make([]uint8, total), target: make([]int32, total)}
	r := newRNG(in.seed, tagKinds)
	pool := in.n - in.stable
	deletes := 0
	for i := range p.kinds {
		roll := r.intn(100)
		kind := uint8(0)
		for k, acc := 0, 0; k < numKinds; k++ {
			acc += mixPct[k]
			if roll < acc {
				kind = uint8(k)
				break
			}
		}
		// A delete whose target would be an insert not yet planned becomes
		// an insert; with a primed pool this does not happen at the frozen
		// mixes, and the plan stays a pure function of the seed either way.
		if kind == kindDelete && deletes >= pool+p.inserts {
			kind = kindInsert
		}
		p.kinds[i] = kind
		switch kind {
		case kindInsert:
			p.target[i] = int32(p.inserts)
			p.inserts++
		case kindDelete:
			p.target[i] = int32(deletes)
			deletes++
		}
	}
	return p
}

// digest hashes every input a pass at these sizes would generate; the test
// uses it to show the same seed yields byte-identical inputs.
func (in *inputs) digest(batches, requests int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPt := func(p geom.Point) {
		for _, c := range p {
			put(math.Float64bits(c))
		}
	}
	for _, c := range in.pts {
		put(math.Float64bits(c))
	}
	for b := 0; b < batches; b++ {
		for _, q := range in.knnQueries(b, 64) {
			putPt(q)
		}
		for _, q := range in.hotQueries(b, 64) {
			putPt(q)
		}
		for _, bx := range in.rangeBoxes(b, 64) {
			putPt(bx.Lo)
			putPt(bx.Hi)
		}
		for _, it := range in.churnItems(b, 64) {
			putPt(it.P)
			put(uint64(it.ID))
		}
	}
	for _, name := range workloadNames[1:] {
		pl := in.plan(servingSpecs[name].mix, requests)
		for i, k := range pl.kinds {
			put(uint64(k))
			put(uint64(pl.target[i]))
		}
	}
	arr := newRNG(in.seed, tagArrivals)
	for i := 0; i < requests; i++ {
		put(math.Float64bits(arr.exp()))
	}
	return h.Sum64()
}
