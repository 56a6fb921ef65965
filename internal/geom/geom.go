// Package geom provides the D-dimensional geometric primitives used by the
// kd-tree structures in this repository: points, axis-aligned boxes, and the
// distance predicates needed for nearest-neighbor, range, and clustering
// queries.
//
// Points are plain float64 slices so that the same code paths serve any
// dimension D >= 1. All operations treat the Euclidean (L2) metric unless a
// function name says otherwise; squared distances are used internally to
// avoid square roots on hot paths.
package geom

import (
	"fmt"
	"math"
)

// Point is a D-dimensional point. Its length is its dimension.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dist2 returns the squared Euclidean distance between p and q.
// p and q must have the same dimension.
func Dist2(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(Dist2(p, q)) }

// Box is an axis-aligned box [Lo, Hi] (closed on both ends).
type Box struct {
	Lo, Hi Point
}

// NewBox returns a box spanning [lo, hi]. It panics if the dimensions
// disagree or any lo coordinate exceeds the matching hi coordinate.
func NewBox(lo, hi Point) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: box dimension mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted box on axis %d: %g > %g", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// Dim returns the dimension of the box.
func (b Box) Dim() int { return len(b.Lo) }

// Clone returns a deep copy of b.
func (b Box) Clone() Box { return Box{Lo: b.Lo.Clone(), Hi: b.Hi.Clone()} }

// Contains reports whether p lies inside b (inclusive on all faces).
func (b Box) Contains(p Point) bool {
	for i := range p {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsHalfOpen reports whether p lies inside b under half-open
// semantics: inclusive lower faces, exclusive upper faces. Partition cells
// use this convention (a point exactly on a split plane belongs to the
// right-hand cell), so half-open membership against a cell's box reproduces
// the partitioner's Owner decision exactly, and disjoint cells tile space
// with every finite point in exactly one cell (+Inf upper faces admit all
// finite coordinates).
func (b Box) ContainsHalfOpen(p Point) bool {
	for i := range p {
		if p[i] < b.Lo[i] || p[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	for i := range b.Lo {
		if o.Lo[i] < b.Lo[i] || o.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o overlap (boundary contact counts).
func (b Box) Intersects(o Box) bool {
	for i := range b.Lo {
		if b.Hi[i] < o.Lo[i] || o.Hi[i] < b.Lo[i] {
			return false
		}
	}
	return true
}

// Dist2ToPoint returns the squared distance from p to the closest point of b
// (zero when p is inside b).
func (b Box) Dist2ToPoint(p Point) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < b.Lo[i]:
			d := b.Lo[i] - p[i]
			s += d * d
		case p[i] > b.Hi[i]:
			d := p[i] - b.Hi[i]
			s += d * d
		}
	}
	return s
}

// IntersectsBall reports whether the closed ball centered at c with radius r
// intersects b.
func (b Box) IntersectsBall(c Point, r float64) bool {
	return b.Dist2ToPoint(c) <= r*r
}

// InsideBall reports whether b lies entirely inside the closed ball centered
// at c with radius r.
func (b Box) InsideBall(c Point, r float64) bool {
	// The farthest corner of b from c must be within r.
	var s float64
	for i := range c {
		d := math.Max(math.Abs(c[i]-b.Lo[i]), math.Abs(c[i]-b.Hi[i]))
		s += d * d
	}
	return s <= r*r
}

// LongestAxis returns the axis along which b is widest, and that width.
func (b Box) LongestAxis() (axis int, width float64) {
	axis, width = 0, b.Hi[0]-b.Lo[0]
	for i := 1; i < len(b.Lo); i++ {
		if w := b.Hi[i] - b.Lo[i]; w > width {
			axis, width = i, w
		}
	}
	return axis, width
}

// Expand grows b (in place) to include p and returns b.
func (b Box) Expand(p Point) Box {
	for i := range p {
		if p[i] < b.Lo[i] {
			b.Lo[i] = p[i]
		}
		if p[i] > b.Hi[i] {
			b.Hi[i] = p[i]
		}
	}
	return b
}

// BoundingBox returns the tight bounding box of pts. It panics on an empty
// input.
func BoundingBox(pts []Point) Box {
	if len(pts) == 0 {
		panic("geom: bounding box of empty point set")
	}
	lo := pts[0].Clone()
	hi := pts[0].Clone()
	for _, p := range pts[1:] {
		for i := range p {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// UniverseBox returns a box covering all representable coordinates in dim
// dimensions, used as the root cell before points constrain it.
func UniverseBox(dim int) Box {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for i := 0; i < dim; i++ {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	return Box{Lo: lo, Hi: hi}
}
