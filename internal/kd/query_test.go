package kd

import (
	"math"
	"testing"

	"pimkd/internal/geom"
)

// TestRegionMatchesPointScan checks Meets, Covers and Has against a scan of
// the 1/8-grid points of every cell whose faces lie on the 1/4 grid of the
// unit square, zero-width cells included. The regions' corners and centers
// lie on the 1/8 grid, so a cell meets a region exactly when one of its
// scanned points lies in it, and lies inside it exactly when all do.
func TestRegionMatchesPointScan(t *testing.T) {
	box := func(x0, y0, x1, y1 float64) geom.Box {
		return geom.Box{Lo: geom.Point{x0, y0}, Hi: geom.Point{x1, y1}}
	}
	inBox := func(b geom.Box) func(geom.Point) bool {
		return func(p geom.Point) bool {
			return b.Lo[0] <= p[0] && p[0] <= b.Hi[0] && b.Lo[1] <= p[1] && p[1] <= b.Hi[1]
		}
	}
	inBall := func(c geom.Point, r float64) func(geom.Point) bool {
		return func(p geom.Point) bool {
			dx, dy := p[0]-c[0], p[1]-c[1]
			return r >= 0 && dx*dx+dy*dy <= r*r
		}
	}
	cases := []struct {
		name string
		g    Region
		in   func(geom.Point) bool
	}{
		{"box", InBox(box(0.125, 0.25, 0.625, 0.75)), inBox(box(0.125, 0.25, 0.625, 0.75))},
		{"zero-width box", InBox(box(0.375, 0, 0.375, 1)), inBox(box(0.375, 0, 0.375, 1))},
		{"point box", InBox(box(0.5, 0.5, 0.5, 0.5)), inBox(box(0.5, 0.5, 0.5, 0.5))},
		{"box beyond the square", InBox(box(-1, 0.875, 2, 3)), inBox(box(-1, 0.875, 2, 3))},
		{"ball", Ball(geom.Point{0.5, 0.5}, 0.25), inBall(geom.Point{0.5, 0.5}, 0.25)},
		// (0.25, 0.5) - (-0.5, -0.5) = (0.75, 1): the closed ball of radius
		// 1.25 touches the cells with that lower-left corner at it alone.
		{"ball touching a corner", Ball(geom.Point{-0.5, -0.5}, 1.25), inBall(geom.Point{-0.5, -0.5}, 1.25)},
		{"ball over the square", Ball(geom.Point{0.5, 0.5}, 1), inBall(geom.Point{0.5, 0.5}, 1)},
		{"zero radius", Ball(geom.Point{0.5, 0.75}, 0), inBall(geom.Point{0.5, 0.75}, 0)},
		{"negative radius", Ball(geom.Point{0.5, 0.5}, -0.25), inBall(geom.Point{0.5, 0.5}, -0.25)},
		{"NaN radius", Ball(geom.Point{0.5, 0.5}, math.NaN()), inBall(geom.Point{0.5, 0.5}, math.NaN())},
	}
	var faces []float64
	for f := 0.0; f <= 1; f += 0.25 {
		faces = append(faces, f)
	}
	for _, tc := range cases {
		met, covered := 0, 0
		for _, x0 := range faces {
			for _, x1 := range faces {
				for _, y0 := range faces {
					for _, y1 := range faces {
						if x1 < x0 || y1 < y0 {
							continue
						}
						cell := box(x0, y0, x1, y1)
						some, all := false, true
						for x := x0; x <= x1; x += 0.125 {
							for y := y0; y <= y1; y += 0.125 {
								p := geom.Point{x, y}
								in := tc.in(p)
								if tc.g.Has(p) != in {
									t.Fatalf("%s: Has(%v) = %v, want %v", tc.name, p, !in, in)
								}
								some, all = some || in, all && in
							}
						}
						if tc.g.Meets(cell) != some {
							t.Errorf("%s: Meets(%v) = %v, want %v", tc.name, cell, !some, some)
						}
						if tc.g.Covers(cell) != all {
							t.Errorf("%s: Covers(%v) = %v, want %v", tc.name, cell, !all, all)
						}
						if some {
							met++
						}
						if all {
							covered++
						}
					}
				}
			}
		}
		t.Logf("%s: meets %d cells, covers %d", tc.name, met, covered)
	}
}
