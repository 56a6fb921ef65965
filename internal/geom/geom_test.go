package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for i := range p {
		p[i] = rng.Float64()*2 - 1
	}
	return p
}

func TestDistBasics(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := Dist(a, b); d != 5 {
		t.Fatalf("Dist = %g want 5", d)
	}
	if d := Dist2(a, b); d != 25 {
		t.Fatalf("Dist2 = %g want 25", d)
	}
	if d := Dist(a, a); d != 0 {
		t.Fatalf("Dist(a,a) = %g", d)
	}
}

func TestDistSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := randPoint(rng, 3), randPoint(rng, 3)
		if Dist2(a, b) != Dist2(b, a) {
			t.Fatalf("asymmetric distance for %v %v", a, b)
		}
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0.5, 0.5}, true},
		{Point{0, 0}, true},
		{Point{1, 1}, true},
		{Point{1.0001, 0.5}, false},
		{Point{-0.0001, 0.5}, false},
	}
	for _, c := range cases {
		if b.Contains(c.p) != c.want {
			t.Fatalf("Contains(%v) = %v", c.p, !c.want)
		}
	}
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(Point{0, 0}, Point{1, 1})
	if !a.Intersects(NewBox(Point{1, 1}, Point{2, 2})) {
		t.Fatal("corner contact should intersect")
	}
	if a.Intersects(NewBox(Point{1.1, 0}, Point{2, 1})) {
		t.Fatal("disjoint boxes intersect")
	}
	if !a.Intersects(NewBox(Point{0.4, 0.4}, Point{0.6, 0.6})) {
		t.Fatal("contained box should intersect")
	}
}

func TestDist2ToPointZeroInside(t *testing.T) {
	b := NewBox(Point{0, 0, 0}, Point{1, 1, 1})
	if d := b.Dist2ToPoint(Point{0.3, 0.9, 0.1}); d != 0 {
		t.Fatalf("inside point has dist %g", d)
	}
	if d := b.Dist2ToPoint(Point{2, 0.5, 0.5}); d != 1 {
		t.Fatalf("outside dist2 %g want 1", d)
	}
}

// Property: the box distance lower-bounds the distance to every point
// inside the box.
func TestBoxDistLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo := randPoint(r, 3)
		hi := lo.Clone()
		for i := range hi {
			hi[i] += r.Float64()
		}
		b := NewBox(lo, hi)
		q := randPoint(r, 3)
		// Random point inside the box.
		in := make(Point, 3)
		for i := range in {
			in[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
		}
		return b.Dist2ToPoint(q) <= Dist2(q, in)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: InsideBall implies every corner is inside the ball.
func TestInsideBallProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		lo := randPoint(rng, 2)
		hi := lo.Clone()
		hi[0] += rng.Float64() * 0.5
		hi[1] += rng.Float64() * 0.5
		b := NewBox(lo, hi)
		c := randPoint(rng, 2)
		r := rng.Float64()
		if b.InsideBall(c, r) {
			for _, corner := range []Point{lo, hi, {lo[0], hi[1]}, {hi[0], lo[1]}} {
				if Dist(c, corner) > r+1e-9 {
					t.Fatalf("InsideBall true but corner %v at dist %g > %g", corner, Dist(c, corner), r)
				}
			}
		}
	}
}

func TestIntersectsBallConsistency(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	if !b.IntersectsBall(Point{2, 0.5}, 1.0) {
		t.Fatal("touching ball should intersect")
	}
	if b.IntersectsBall(Point{2, 0.5}, 0.9) {
		t.Fatal("distant ball should not intersect")
	}
}

func TestLongestAxis(t *testing.T) {
	b := NewBox(Point{0, 0, 0}, Point{1, 3, 2})
	axis, w := b.LongestAxis()
	if axis != 1 || w != 3 {
		t.Fatalf("got axis %d width %g", axis, w)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	b := BoundingBox(pts)
	if !b.Lo.Equal(Point{-2, -1}) || !b.Hi.Equal(Point{4, 5}) {
		t.Fatalf("box %v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("bounding box misses %v", p)
		}
	}
}

func TestUniverseBox(t *testing.T) {
	u := UniverseBox(2)
	if !u.Contains(Point{1e300, -1e300}) {
		t.Fatal("universe box misses extreme point")
	}
	if u.Dist2ToPoint(Point{5, 5}) != 0 {
		t.Fatal("universe box dist nonzero")
	}
	if u.InsideBall(Point{0, 0}, 1e100) {
		t.Fatal("universe box cannot fit in a finite ball")
	}
}

func TestExpand(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	b = b.Expand(Point{2, -1})
	if b.Hi[0] != 2 || b.Lo[1] != -1 {
		t.Fatalf("expand result %v", b)
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox(Point{0, 0}, Point{2, 2})
	inner := NewBox(Point{0.5, 0.5}, Point{1.5, 1.5})
	if !outer.ContainsBox(inner) || inner.ContainsBox(outer) {
		t.Fatal("ContainsBox wrong")
	}
}

func TestNewBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted box did not panic")
		}
	}()
	NewBox(Point{1}, Point{0})
}
