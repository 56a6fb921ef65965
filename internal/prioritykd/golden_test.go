package prioritykd

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pimkd/internal/geom"
)

// TestMeterGolden pins the baseline's Meter after a fixed-seed build and
// after a NearestHigher query from every item, with a hash of the answers,
// on a grid with many equidistant candidates, duplicate positions and
// priority ties: the leaf order decides which of two equidistant items a
// query returns, so the hash pins it. The values were captured before the
// build kernels moved into internal/kd.
func TestMeterGolden(t *testing.T) {
	want := []string{
		"build {NodeVisits:0 PointOps:62295}",
		"query {NodeVisits:64318 PointOps:134750} answers 0xf84fef1bcd56055a",
	}
	rng := rand.New(rand.NewSource(23))
	items := make([]Item, 6000)
	for i := range items {
		p := geom.Point{float64(rng.Intn(24)) / 24, float64(rng.Intn(24)) / 24}
		items[i] = Item{P: p, Priority: float64(rng.Intn(40)), ID: int32(i)}
	}
	tree := New(items, 8)
	got := []string{fmt.Sprintf("build %+v", tree.Meter)}
	h := fnv.New64a()
	var b [8]byte
	for _, it := range items {
		id, d2 := tree.NearestHigher(it.P, it.Priority, it.ID)
		for _, w := range []uint64{uint64(id), math.Float64bits(d2)} {
			for i := range b {
				b[i] = byte(w >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	got = append(got, fmt.Sprintf("query %+v answers %#x", tree.Meter, h.Sum64()))
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %q, want %q", got[i], want[i])
		}
	}
}
