package kd

import (
	"math"

	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// Region is a range query's search region: a closed box, or a closed ball.
// Its three predicates are the whole of a range search: a walk descends
// into the cells the region Meets, may count or collect a cell it Covers
// whole, and filters a leaf bucket through Has.
type Region struct {
	box   geom.Box
	ball  bool
	c     geom.Point
	r, r2 float64
}

// InBox returns the region of the closed box b.
func InBox(b geom.Box) Region { return Region{box: b} }

// Ball returns the closed ball of radius r around c. A negative or NaN r
// is the empty ball; squaring it would answer the |r|-ball instead.
func Ball(c geom.Point, r float64) Region {
	if !(r >= 0) {
		return Region{ball: true, c: c, r: -1, r2: -1}
	}
	return Region{ball: true, c: c, r: r, r2: r * r}
}

// Meets reports whether cell may hold points of g: whether they share a
// point, boundary contact included.
func (g *Region) Meets(cell geom.Box) bool {
	if g.ball {
		return cell.Dist2ToPoint(g.c) <= g.r2
	}
	return g.box.Intersects(cell)
}

// Covers reports whether cell lies entirely inside g.
func (g *Region) Covers(cell geom.Box) bool {
	if g.ball {
		return g.r2 >= 0 && cell.InsideBall(g.c, g.r)
	}
	return g.box.ContainsBox(cell)
}

// Has reports whether point p lies in g.
func (g *Region) Has(p geom.Point) bool {
	if g.ball {
		return geom.Dist2(g.c, p) <= g.r2
	}
	return g.box.Contains(p)
}

// Nearest is the state of a (1+ε)-approximate k-nearest-neighbour search:
// the query point, its candidate set, and the squared shrink (1+ε)², which
// is 1 for an exact search. A walk scans the leaves it reaches into Best
// and descends only into cells worth it. Make one with NewNearest, and
// offer candidates to Best only through Scan.
type Nearest struct {
	Q       geom.Point
	Best    *heapx.KBest
	Shrink2 float64
	// bound is Best.Bound() as of the last Scan; caching it keeps Worth
	// small enough to inline into a walk.
	bound float64
}

// NewNearest starts a search for q's candidates in best, shrinking the
// cell bound by shrink2 = (1+ε)².
func NewNearest(q geom.Point, best *heapx.KBest, shrink2 float64) Nearest {
	return Nearest{Q: q, Best: best, Shrink2: shrink2, bound: best.Bound()}
}

// Scan offers every item of a leaf bucket to the candidate set, with its
// coordinates.
func (s *Nearest) Scan(items []Item) {
	for _, it := range items {
		s.Best.OfferCand(heapx.Candidate{Dist2: geom.Dist2(s.Q, it.P), ID: it.ID, P: it.P})
	}
	s.bound = s.Best.Bound()
}

// Worth reports whether a subtree whose cell is cell can still beat the
// candidate bound, shrunk by (1+ε)² (the ANN early-termination rule). <=
// not <: with the canonical (dist2, id) tie-break a cell at exactly the
// bound can still hold a displacing candidate.
func (s *Nearest) Worth(cell geom.Box) bool {
	return cell.Dist2ToPoint(s.Q)*s.Shrink2 <= s.bound
}

// Higher is the state of a nearest-higher-priority search, the
// dependent-point step of density peak clustering (§6.1): the query item,
// and the nearest stored item found so far whose (Priority, ID) pair
// exceeds the query's, by ID (-1 before any) and squared distance D2 (+Inf
// before any).
type Higher struct {
	Q  Item
	ID int32
	D2 float64
}

// NewHigher starts a nearest-higher-priority search for q.
func NewHigher(q Item) Higher { return Higher{Q: q, ID: -1, D2: math.Inf(1)} }

// Scan considers every item of a leaf bucket. Of equidistant items above
// the query the first scanned wins, so the bucket order decides ties.
func (h *Higher) Scan(items []Item) {
	for _, it := range items {
		if !PriLess(h.Q.Priority, h.Q.ID, it.Priority, it.ID) {
			continue
		}
		if d2 := geom.Dist2(h.Q.P, it.P); d2 < h.D2 {
			h.ID, h.D2 = it.ID, d2
		}
	}
}

// Worth reports whether a subtree whose cell is cell and whose maximum
// (Priority, ID) pair is (maxPri, maxID) may hold a nearer item above the
// query.
func (h *Higher) Worth(cell geom.Box, maxPri float64, maxID int32) bool {
	return PriLess(h.Q.Priority, h.Q.ID, maxPri, maxID) && cell.Dist2ToPoint(h.Q.P) < h.D2
}
