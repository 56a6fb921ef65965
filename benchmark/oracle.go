package main

import (
	"fmt"
	"math"
	"sort"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// The oracle is a brute-force scan over the benchmark's own copy of the
// points. It shares no code with the trees it checks; the distance is the
// same left-to-right sum of squares, so a correct answer matches bit for bit.

type neighbour struct {
	id int32
	d2 float64
}

func nbLess(a, b neighbour) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.id < b.id
}

func dist2(p []float64, q geom.Point) float64 {
	var s float64
	for i := range q {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// knn returns the k nearest of points 0..upTo-1 in canonical (dist2, id)
// order.
func (in *inputs) knn(q geom.Point, k, upTo int) []neighbour {
	best := make([]neighbour, 0, k+1)
	for i := 0; i < upTo; i++ {
		c := neighbour{id: int32(i), d2: dist2(in.pts[i*dim:], q)}
		if len(best) == k && !nbLess(c, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return nbLess(c, best[j]) })
		best = append(best, neighbour{})
		copy(best[at+1:], best[at:])
		best[at] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// inBox lists the ids of points 0..upTo-1 inside the closed box, ascending.
func (in *inputs) inBox(b geom.Box, upTo int) []int32 {
	var ids []int32
	for i := 0; i < upTo; i++ {
		p := in.pts[i*dim : (i+1)*dim]
		inside := true
		for d := range p {
			if p[d] < b.Lo[d] || p[d] > b.Hi[d] {
				inside = false
				break
			}
		}
		if inside {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// checkKNNExact demands got equal the oracle's answer over the whole data
// set, bit for bit. asSqrt says got carries sqrt(dist2) rather than dist2.
func (in *inputs) checkKNNExact(q geom.Point, got []neighbour, asSqrt bool) error {
	want := in.knn(q, knnK, in.n)
	if len(got) != len(want) {
		return fmt.Errorf("knn at %v: %d neighbours, oracle has %d", q, len(got), len(want))
	}
	for i, w := range want {
		d := w.d2
		if asSqrt {
			d = math.Sqrt(d)
		}
		if got[i].id != w.id || got[i].d2 != d {
			return fmt.Errorf("knn at %v: neighbour %d is (%d, %v), oracle has (%d, %v)", q, i, got[i].id, got[i].d2, w.id, d)
		}
	}
	return nil
}

// checkKNNChurn checks a kNN answer taken while this run's writes were in
// flight, when the stored set at execution time is unknown. The stable
// points are always stored, so: the answer is in canonical order; every
// stable neighbour carries the oracle's distance; every other neighbour is
// an item this run could have stored, at its true distance; and no stable
// point that beats the answer's last neighbour is missing.
func (in *inputs) checkKNNChurn(q geom.Point, got []neighbour, asSqrt bool, volatileItem func(id int32) (geom.Point, bool)) error {
	conv := func(d2 float64) float64 {
		if asSqrt {
			return math.Sqrt(d2)
		}
		return d2
	}
	if len(got) != knnK {
		return fmt.Errorf("knn at %v: %d neighbours, want %d", q, len(got), knnK)
	}
	seen := map[int32]bool{}
	for i, g := range got {
		if i > 0 && nbLess(g, got[i-1]) {
			return fmt.Errorf("knn at %v: neighbours out of canonical order at %d", q, i)
		}
		var p []float64
		if int(g.id) < in.stable {
			p = in.point(int(g.id))
		} else if vp, ok := volatileItem(g.id); ok {
			p = vp
		} else {
			return fmt.Errorf("knn at %v: neighbour id %d was never stored", q, g.id)
		}
		if d := conv(dist2(p, q)); d != g.d2 {
			return fmt.Errorf("knn at %v: neighbour %d at distance %v, its coordinates give %v", q, g.id, g.d2, d)
		}
		seen[g.id] = true
	}
	last := got[len(got)-1]
	for _, w := range in.knn(q, knnK, in.stable) {
		c := neighbour{id: w.id, d2: conv(w.d2)}
		if nbLess(c, last) && !seen[w.id] {
			return fmt.Errorf("knn at %v: stable point %d at %v beats the last neighbour %v and is missing", q, w.id, c.d2, last.d2)
		}
	}
	return nil
}

// checkRange compares a range answer with the oracle. Items with id below
// upTo must be exactly the oracle's; with churn (volatileItem non-nil) other
// items are allowed when they are the run's own and lie inside the box.
func (in *inputs) checkRange(b geom.Box, got []core.Item, upTo int, volatileItem func(id int32) (geom.Point, bool)) error {
	var ids []int32
	for _, it := range got {
		if int(it.ID) < upTo {
			if !it.P.Equal(in.point(int(it.ID))) {
				return fmt.Errorf("range %v: item %d has coordinates %v, stored %v", b, it.ID, it.P, in.point(int(it.ID)))
			}
			ids = append(ids, it.ID)
			continue
		}
		if volatileItem == nil {
			return fmt.Errorf("range %v: unknown item %d", b, it.ID)
		}
		p, ok := volatileItem(it.ID)
		if !ok || !p.Equal(it.P) || !b.Contains(it.P) {
			return fmt.Errorf("range %v: item %d at %v is not one this run stored there", b, it.ID, it.P)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	want := in.inBox(b, upTo)
	if len(ids) != len(want) {
		return fmt.Errorf("range %v: %d stable items, oracle has %d", b, len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			return fmt.Errorf("range %v: item %d is %d, oracle has %d", b, i, ids[i], want[i])
		}
	}
	return nil
}

// checkStoredSet demands the stored items equal want exactly (ids and
// coordinates) — the zero-lost-acked-writes check.
func checkStoredSet(what string, got []core.Item, want map[int32]geom.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d items stored, ledger has %d", what, len(got), len(want))
	}
	seen := make(map[int32]bool, len(got))
	for _, it := range got {
		p, ok := want[it.ID]
		if !ok || seen[it.ID] {
			return fmt.Errorf("%s: item %d is stored but not in the ledger (or stored twice)", what, it.ID)
		}
		seen[it.ID] = true
		if !p.Equal(it.P) {
			return fmt.Errorf("%s: item %d stored at %v, ledger has %v", what, it.ID, it.P, p)
		}
	}
	return nil
}
