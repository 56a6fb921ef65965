package heapx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKBestKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		n := rng.Intn(200)
		b := NewKBest(k)
		var all []float64
		for i := 0; i < n; i++ {
			d := rng.Float64()
			all = append(all, d)
			b.Offer(d, int32(i))
		}
		got := b.Sorted()
		sort.Float64s(all)
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("kept %d want %d", len(got), wantLen)
		}
		for i := range got {
			if got[i].Dist2 != all[i] {
				t.Fatalf("rank %d: %g want %g", i, got[i].Dist2, all[i])
			}
		}
	}
}

// TestKBestSortedInto: SortedInto appends exactly what Sorted returns,
// leaves dst's earlier candidates alone, consumes the heap, and stays in
// dst's array when it has room.
func TestKBestSortedInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		a, b := NewKBest(k), NewKBest(k)
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			d := float64(rng.Intn(20))
			a.Offer(d, int32(i))
			b.Offer(d, int32(i))
		}
		want := a.Sorted()
		dst := append(make([]Candidate, 0, 1+k), Candidate{Dist2: -1, ID: -1})
		got := b.SortedInto(dst)
		if &got[0] != &dst[0] {
			t.Fatal("SortedInto left a slab that had room")
		}
		if got[0].ID != -1 || len(got) != 1+len(want) || b.Len() != 0 {
			t.Fatalf("SortedInto returned %v, heap left %d", got, b.Len())
		}
		for i, c := range want {
			if g := got[1+i]; g.Dist2 != c.Dist2 || g.ID != c.ID {
				t.Fatalf("SortedInto[%d] = %+v, Sorted %+v", i, g, c)
			}
		}
	}
}

func TestKBestBound(t *testing.T) {
	b := NewKBest(2)
	if b.Bound() != maxFloat {
		t.Fatal("empty bound should be max")
	}
	b.Offer(5, 1)
	if b.Bound() != maxFloat {
		t.Fatal("partial bound should be max")
	}
	b.Offer(3, 2)
	if b.Bound() != 5 {
		t.Fatalf("bound %g want 5", b.Bound())
	}
	if b.Offer(10, 3) {
		t.Fatal("worse candidate accepted")
	}
	if !b.Offer(1, 4) {
		t.Fatal("better candidate rejected")
	}
	if b.Bound() != 3 {
		t.Fatalf("bound %g want 3", b.Bound())
	}
}

func TestKBestReset(t *testing.T) {
	b := NewKBest(3)
	b.Offer(1, 1)
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Fatal("reset did not empty")
	}
}

func TestKBestProperty(t *testing.T) {
	f := func(ds []float64, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		b := NewKBest(k)
		for i, d := range ds {
			if d < 0 {
				d = -d
			}
			b.Offer(d, int32(i))
		}
		got := b.Sorted()
		// Sorted ascending and no more than k.
		if len(got) > k {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Dist2 > got[i].Dist2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Min[int]
	var keys []float64
	for i := 0; i < 500; i++ {
		k := rng.NormFloat64()
		keys = append(keys, k)
		h.Push(k, i)
	}
	sort.Float64s(keys)
	for i := 0; i < 500; i++ {
		k, _ := h.Pop()
		if k != keys[i] {
			t.Fatalf("pop %d: %g want %g", i, k, keys[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty")
	}
}

func TestMinHeapMinKey(t *testing.T) {
	var h Min[string]
	if h.MinKey() != maxFloat {
		t.Fatal("empty MinKey should be sentinel")
	}
	h.Push(2, "b")
	h.Push(1, "a")
	if h.MinKey() != 1 {
		t.Fatalf("MinKey %g", h.MinKey())
	}
	if _, v := h.Pop(); v != "a" {
		t.Fatalf("popped %q", v)
	}
}

func TestMinHeapReset(t *testing.T) {
	var h Min[int]
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset failed")
	}
}
