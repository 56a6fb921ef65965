package parallel

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// withProcs forces the parallel code paths even on single-core machines
// (goroutines interleave rather than run simultaneously, which still
// exercises the partitioning and merging logic under the race detector).
func withProcs(t *testing.T, p int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	body()
}

func TestForParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := grain*6 + 13
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d hit %d times", i, h)
			}
		}
	})
}

func TestReduceIntParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := grain*6 + 7
		got := ReduceInt(n, func(i int) int { return i })
		if want := n * (n - 1) / 2; got != want {
			t.Fatalf("sum %d want %d", got, want)
		}
	})
}

func TestSortParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		rng := rand.New(rand.NewSource(9))
		for _, n := range []int{4 * grain, 5*grain + 321, 16 * grain} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			Sort(xs, func(a, b float64) bool { return a < b })
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d mismatch at %d", n, i)
				}
			}
		}
	})
}

func TestSortParallelOddChunks(t *testing.T) {
	// Three chunks forces the odd-span carry in the merge ladder.
	withProcs(t, 3, func() {
		n := 13 * grain
		xs := make([]int, n)
		rng := rand.New(rand.NewSource(11))
		for i := range xs {
			xs[i] = rng.Intn(1000)
		}
		Sort(xs, func(a, b int) bool { return a < b })
		if !sort.IntsAreSorted(xs) {
			t.Fatal("unsorted")
		}
	})
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, grain - 1, grain, grain*3 + 5} {
		var hits = make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	n := grain*4 + 17
	var total atomic.Int64
	ForChunked(n, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("covered %d of %d", total.Load(), n)
	}
}

// TestForChunksIndex: ForChunks numbers its chunks 0..Chunks(n)-1 in range
// order, each index once, and returns the count, at every GOMAXPROCS.
func TestForChunksIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, grain, grain*4 + 17, grain * 64} {
			count := Chunks(n)
			spans := make([][2]int, count)
			if got := ForChunks(n, func(c, lo, hi int) { spans[c] = [2]int{lo, hi} }); got != count {
				t.Errorf("GOMAXPROCS %d, n=%d: ForChunks ran %d chunks, Chunks said %d", procs, n, got, count)
			}
			next := 0
			for c, s := range spans {
				if s[0] != next || s[1] <= s[0] {
					t.Errorf("GOMAXPROCS %d, n=%d: chunk %d is [%d,%d), want it to start at %d", procs, n, c, s[0], s[1], next)
				}
				next = s[1]
			}
			if next != n {
				t.Errorf("GOMAXPROCS %d, n=%d: chunks cover [0,%d)", procs, n, next)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) }, func() { c.Store(true) })
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("Do skipped a thunk")
	}
}

func TestReduceInt(t *testing.T) {
	n := grain*5 + 3
	got := ReduceInt(n, func(i int) int { return i })
	want := n * (n - 1) / 2
	if got != want {
		t.Fatalf("sum %d want %d", got, want)
	}
	if ReduceInt(0, func(int) int { return 1 }) != 0 {
		t.Fatal("empty reduce nonzero")
	}
}

func TestMaxInt(t *testing.T) {
	xs := []int{3, 9, 1, 9, 2}
	if m := MaxInt(len(xs), func(i int) int { return xs[i] }); m != 9 {
		t.Fatalf("max %d", m)
	}
	if MaxInt(0, nil) != 0 {
		t.Fatal("empty max nonzero")
	}
}

func TestPrefixSum(t *testing.T) {
	xs := []int{3, 1, 4, 1, 5}
	total := PrefixSum(xs)
	if total != 14 {
		t.Fatalf("total %d", total)
	}
	want := []int{0, 3, 4, 8, 9}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("prefix[%d] = %d want %d", i, xs[i], want[i])
		}
	}
	if PrefixSum(nil) != 0 {
		t.Fatal("nil prefix sum nonzero")
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 4 * grain, 4*grain + 999} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		Sort(xs, func(a, b float64) bool { return a < b })
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

func TestSortStabilityOfDuplicates(t *testing.T) {
	xs := make([]int, 5*grain)
	for i := range xs {
		xs[i] = i % 3
	}
	Sort(xs, func(a, b int) bool { return a < b })
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatal("unsorted duplicates")
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(xs []int16) bool {
		ys := make([]int, len(xs))
		for i, x := range xs {
			ys[i] = int(x)
		}
		Sort(ys, func(a, b int) bool { return a < b })
		return sort.IntsAreSorted(ys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBy(t *testing.T) {
	groups := GroupBy(10, func(i int) int { return i % 3 })
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	for g, grp := range groups {
		if grp.Key != g {
			t.Fatalf("group %d has key %d: keys not ascending", g, grp.Key)
		}
	}
	if len(groups[0].Idxs) != 4 || len(groups[1].Idxs) != 3 || len(groups[2].Idxs) != 3 {
		t.Fatalf("group sizes %v", groups)
	}
	if groups[1].Idxs[0] != 1 || groups[1].Idxs[1] != 4 {
		t.Fatal("indices not ascending")
	}
	if GroupBy(0, nil) != nil {
		t.Fatal("empty group-by not nil")
	}
}

func TestGroupBySparseKeysOrdered(t *testing.T) {
	// Non-contiguous keys in scrambled input order: the groups slice must
	// still come back ascending by key with ascending indices inside.
	keys := []int{907, 3, 3, 512, 907, 3, 512, 99}
	groups := GroupBy(len(keys), func(i int) int { return keys[i] })
	wantKeys := []int{3, 99, 512, 907}
	if len(groups) != len(wantKeys) {
		t.Fatalf("%d groups want %d", len(groups), len(wantKeys))
	}
	for g, grp := range groups {
		if grp.Key != wantKeys[g] {
			t.Fatalf("group %d key %d want %d", g, grp.Key, wantKeys[g])
		}
		for j := 1; j < len(grp.Idxs); j++ {
			if grp.Idxs[j-1] >= grp.Idxs[j] {
				t.Fatalf("key %d indices not ascending: %v", grp.Key, grp.Idxs)
			}
		}
		for _, i := range grp.Idxs {
			if keys[i] != grp.Key {
				t.Fatalf("index %d (key %d) filed under %d", i, keys[i], grp.Key)
			}
		}
	}
}

func TestCountingSortByKey(t *testing.T) {
	items := []string{"b", "a", "c", "a", "b", "a"}
	key := func(s string) int { return int(s[0] - 'a') }
	sorted, offsets := CountingSortByKey(items, 3, key)
	if len(sorted) != len(items) {
		t.Fatal("length changed")
	}
	for g := 0; g < 3; g++ {
		for _, s := range sorted[offsets[g]:offsets[g+1]] {
			if key(s) != g {
				t.Fatalf("bucket %d holds %q", g, s)
			}
		}
	}
	if offsets[1]-offsets[0] != 3 {
		t.Fatalf("bucket 'a' size %d", offsets[1]-offsets[0])
	}
}

type kv struct{ k, seq int }

func TestCountingSortByKeyParallelStable(t *testing.T) {
	withProcs(t, 4, func() {
		const buckets = 7
		n := grain*8 + 39
		rng := rand.New(rand.NewSource(42))
		items := make([]kv, n)
		for i := range items {
			items[i] = kv{k: rng.Intn(buckets), seq: i}
		}
		sorted, offsets := CountingSortByKey(items, buckets, func(x kv) int { return x.k })
		if len(sorted) != n || len(offsets) != buckets+1 {
			t.Fatalf("shape: len=%d offsets=%d", len(sorted), len(offsets))
		}
		if offsets[0] != 0 || offsets[buckets] != n {
			t.Fatalf("offsets ends %d..%d", offsets[0], offsets[buckets])
		}
		for b := 0; b < buckets; b++ {
			seg := sorted[offsets[b]:offsets[b+1]]
			for j, x := range seg {
				if x.k != b {
					t.Fatalf("bucket %d holds key %d", b, x.k)
				}
				if j > 0 && seg[j-1].seq >= x.seq {
					t.Fatalf("bucket %d unstable at %d: %d then %d", b, j, seg[j-1].seq, x.seq)
				}
			}
		}
	})
}

// identicalAcrossProcs runs body at each GOMAXPROCS level and asserts every
// run produces the same value — the bit-identical-across-cores contract the
// determinism oracle in internal/core leans on. CI exercises the same
// property externally via `go test -cpu 1,4`.
func identicalAcrossProcs[T comparable](t *testing.T, name string, body func() T) {
	t.Helper()
	var base T
	for pi, p := range []int{1, 2, 4, 8} {
		var got T
		withProcs(t, p, func() { got = body() })
		if pi == 0 {
			base = got
		} else if got != base {
			t.Fatalf("%s: GOMAXPROCS=%d result %v differs from GOMAXPROCS=1 result %v", name, p, got, base)
		}
	}
}

func TestCrossProcsIdenticalOutputs(t *testing.T) {
	n := grain*9 + 117
	rng := rand.New(rand.NewSource(7))
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(1 << 20)
	}
	identicalAcrossProcs(t, "ReduceInt", func() int {
		return ReduceInt(n, func(i int) int { return xs[i] })
	})
	identicalAcrossProcs(t, "MaxInt", func() int {
		return MaxInt(n, func(i int) int { return xs[i] })
	})
	identicalAcrossProcs(t, "PrefixSum", func() [2]int {
		ys := append([]int(nil), xs...)
		total := PrefixSum(ys)
		h := 1469598103934665603 // FNV-style fold of the scanned slice
		for _, v := range ys {
			h = (h ^ v) * 1099511628211
		}
		return [2]int{total, h}
	})
	identicalAcrossProcs(t, "GroupBy", func() int {
		groups := GroupBy(n, func(i int) int { return xs[i] % 53 })
		h := 1469598103934665603
		for _, g := range groups {
			h = (h ^ g.Key) * 1099511628211
			for _, i := range g.Idxs {
				h = (h ^ i) * 1099511628211
			}
		}
		return h
	})
	identicalAcrossProcs(t, "CountingSortByKey", func() int {
		sorted, offsets := CountingSortByKey(xs, 64, func(v int) int { return v % 64 })
		h := 1469598103934665603
		for _, v := range sorted {
			h = (h ^ v) * 1099511628211
		}
		for _, v := range offsets {
			h = (h ^ v) * 1099511628211
		}
		return h
	})
	identicalAcrossProcs(t, "Sort", func() int {
		ys := append([]int(nil), xs...)
		Sort(ys, func(a, b int) bool { return a < b })
		h := 1469598103934665603
		for _, v := range ys {
			h = (h ^ v) * 1099511628211
		}
		return h
	})
}

func TestPrefixSumParallelMatchesSequential(t *testing.T) {
	withProcs(t, 4, func() {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{grain + 1, grain*4 + 31, grain * 10} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = rng.Intn(100)
			}
			want := append([]int(nil), xs...)
			wantTotal := 0
			for i, v := range want {
				want[i] = wantTotal
				wantTotal += v
			}
			got := append([]int(nil), xs...)
			if total := PrefixSum(got); total != wantTotal {
				t.Fatalf("n=%d total %d want %d", n, total, wantTotal)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d prefix[%d] = %d want %d", n, i, got[i], want[i])
				}
			}
		}
	})
}

func TestMaxIntParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := grain*6 + 5
		xs := make([]int, n)
		rng := rand.New(rand.NewSource(5))
		want := -1 << 62
		for i := range xs {
			xs[i] = rng.Intn(1 << 30)
			if xs[i] > want {
				want = xs[i]
			}
		}
		if got := MaxInt(n, func(i int) int { return xs[i] }); got != want {
			t.Fatalf("max %d want %d", got, want)
		}
	})
}

func TestSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 5, 4*grain + 77} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		SortFloat64s(xs)
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}
