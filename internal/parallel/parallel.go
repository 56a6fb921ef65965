// Package parallel implements the shared-memory parallel primitives the
// paper's algorithms assume from the binary-forking model: parallel for
// loops, reductions, prefix sums, a parallel sample sort, and a semisort
// style group-by. All primitives are deterministic given deterministic
// inputs and use only goroutines and sync from the standard library.
//
// Determinism is a hard contract, not a best effort: every primitive
// returns bit-identical results for any GOMAXPROCS value, because the
// host-side algorithms in internal/core feed their outputs into metered
// PIM rounds and the metered pim.Stats are the regression oracle for the
// whole repository. Integer reductions and prefix sums are exact under
// reassociation; float comparisons (min/max, sort orders) never round; and
// the blocked scatter primitives are stable, so chunk boundaries (which do
// depend on GOMAXPROCS) never leak into results.
//
// On a machine with few cores the primitives degrade gracefully to
// sequential execution (work stays the same; only span changes), which is
// what the paper's work-span analysis predicts.
package parallel

import (
	"runtime"
	"sort"
	"sync"
)

// grain is the smallest chunk of iterations worth forking a goroutine for.
const grain = 2048

// Procs returns the parallelism level used by the primitives.
func Procs() int { return runtime.GOMAXPROCS(0) }

// chunkSpans is the shared chunking rule behind every blocked primitive
// (ForChunks, ReduceInt, MaxInt, PrefixSum, CountingSortByKey): it
// partitions [0, n) into `count` contiguous chunks of `size` iterations
// (the last chunk may be short). count == 1 means "run sequentially".
func chunkSpans(n int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	p := Procs()
	if p == 1 || n <= grain {
		return n, 1
	}
	count = p * 4
	if max := (n + grain - 1) / grain; count > max {
		count = max
	}
	size = (n + count - 1) / count
	count = (n + size - 1) / size
	return size, count
}

// Chunks returns the number of chunks ForChunks splits [0, n) into under
// the current GOMAXPROCS: the length of the per-chunk slots a caller
// preallocates.
func Chunks(n int) int {
	_, count := chunkSpans(n)
	return count
}

// ForChunks runs body(c, lo, hi) for every chunk of [0, n), in parallel
// across chunks, and returns the chunk count; c runs over [0, Chunks(n)).
// Callers that need per-chunk partial results use c to write into
// preallocated slots, keeping the combine step deterministic.
func ForChunks(n int, body func(c, lo, hi int)) int {
	size, count := chunkSpans(n)
	switch count {
	case 0:
		return 0
	case 1:
		body(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(count)
	for c := 0; c < count; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		go func(c, lo, hi int) {
			defer wg.Done()
			body(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	return count
}

// For runs body(i) for every i in [0, n) using up to Procs() goroutines.
// body must be safe to call concurrently for distinct i.
func For(n int, body func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked partitions [0, n) into contiguous chunks and runs body(lo, hi)
// on each chunk, in parallel across chunks.
func ForChunked(n int, body func(lo, hi int)) {
	ForChunks(n, func(_, lo, hi int) { body(lo, hi) })
}

// Do runs the given thunks concurrently and waits for all of them. It is the
// fork-join "spawn" of the binary-forking model.
func Do(thunks ...func()) {
	if len(thunks) == 1 {
		thunks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(thunks) - 1)
	for _, t := range thunks[1:] {
		go func(t func()) {
			defer wg.Done()
			t()
		}(t)
	}
	thunks[0]()
	wg.Wait()
}

// ReduceInt computes the sum of f(i) over i in [0, n): a blocked parallel
// reduction (chunk partials combined in chunk order, exact for ints).
func ReduceInt(n int, f func(i int) int) int {
	if n <= 0 {
		return 0
	}
	_, count := chunkSpans(n)
	if count == 1 {
		s := 0
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	partials := make([]int, count)
	ForChunks(n, func(c, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partials[c] = s
	})
	s := 0
	for _, v := range partials {
		s += v
	}
	return s
}

// MaxInt computes the maximum of f(i) over i in [0, n) as a blocked
// parallel reduction; it returns 0 for n <= 0.
func MaxInt(n int, f func(i int) int) int {
	if n <= 0 {
		return 0
	}
	_, count := chunkSpans(n)
	if count == 1 {
		m := f(0)
		for i := 1; i < n; i++ {
			if v := f(i); v > m {
				m = v
			}
		}
		return m
	}
	partials := make([]int, count)
	ForChunks(n, func(c, lo, hi int) {
		m := f(lo)
		for i := lo + 1; i < hi; i++ {
			if v := f(i); v > m {
				m = v
			}
		}
		partials[c] = m
	})
	m := partials[0]
	for _, v := range partials[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// PrefixSum replaces xs with its exclusive prefix sum and returns the
// total. Above the grain threshold it runs the classic blocked scan —
// parallel chunk sums, a sequential exclusive scan over the (few) chunk
// totals, then a parallel local scan per chunk — which is bit-identical to
// the sequential scan because integer addition reassociates exactly.
// PrefixSum(nil) returns 0.
func PrefixSum(xs []int) int {
	n := len(xs)
	_, count := chunkSpans(n)
	if count <= 1 {
		total := 0
		for i, v := range xs {
			xs[i] = total
			total += v
		}
		return total
	}
	sums := make([]int, count)
	ForChunks(n, func(c, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		sums[c] = s
	})
	total := 0
	for c, v := range sums {
		sums[c] = total
		total += v
	}
	ForChunks(n, func(c, lo, hi int) {
		run := sums[c]
		for i := lo; i < hi; i++ {
			v := xs[i]
			xs[i] = run
			run += v
		}
	})
	return total
}

// Sort sorts xs in parallel using a sample-sort style split: sorted chunks
// merged through bucket boundaries. For small inputs it falls back to the
// standard library sort.
func Sort[T any](xs []T, less func(a, b T) bool) {
	n := len(xs)
	p := Procs()
	if p == 1 || n < 4*grain {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	// Sort chunks in parallel, then iteratively merge pairs.
	chunks := p
	size := (n + chunks - 1) / chunks
	type span struct{ lo, hi int }
	var spans []span
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		spans = append(spans, span{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			seg := xs[lo:hi]
			sort.Slice(seg, func(i, j int) bool { return less(seg[i], seg[j]) })
		}(lo, hi)
	}
	wg.Wait()
	buf := make([]T, n)
	src, dst := xs, buf
	for len(spans) > 1 {
		var next []span
		var mg sync.WaitGroup
		for i := 0; i < len(spans); i += 2 {
			if i+1 == len(spans) {
				next = append(next, spans[i])
				copy(dst[spans[i].lo:spans[i].hi], src[spans[i].lo:spans[i].hi])
				continue
			}
			a, b := spans[i], spans[i+1]
			next = append(next, span{a.lo, b.hi})
			mg.Add(1)
			go func(a, b span) {
				defer mg.Done()
				merge(dst[a.lo:b.hi], src[a.lo:a.hi], src[b.lo:b.hi], less)
			}(a, b)
		}
		mg.Wait()
		spans = next
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// SortFloat64s sorts xs ascending: Sort specialized to the float64 keys
// the host-side phases (pimsort samples, pkd-tree coordinate scans) sort
// most often. A drop-in replacement for sort.Float64s on NaN-free data.
func SortFloat64s(xs []float64) {
	Sort(xs, func(a, b float64) bool { return a < b })
}

func merge[T any](out, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// Group is one key's index set in a GroupBy result.
type Group struct {
	// Key is the group's key value.
	Key int
	// Idxs lists the input indices carrying the key, ascending.
	Idxs []int
}

// GroupBy performs a semisort-style group-by: it returns one Group per
// distinct key produced by key(i) over i in [0, n), ordered ascending by
// key, with ascending indices inside each group. The ordered-slice return
// is part of the contract — an earlier version returned a Go map, whose
// randomized iteration order silently broke the determinism guarantee for
// any caller ranging over the groups.
func GroupBy(n int, key func(i int) int) []Group {
	if n <= 0 {
		return nil
	}
	keys := make([]int, n)
	For(n, func(i int) { keys[i] = key(i) })
	idx := make([]int, n)
	For(n, func(i int) { idx[i] = i })
	Sort(idx, func(a, b int) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b
	})
	var groups []Group
	for lo := 0; lo < n; {
		hi := lo + 1
		k := keys[idx[lo]]
		for hi < n && keys[idx[hi]] == k {
			hi++
		}
		groups = append(groups, Group{Key: k, Idxs: idx[lo:hi:hi]})
		lo = hi
	}
	return groups
}

// CountingSortByKey reorders items so that equal keys are contiguous, and
// returns the offsets slice: group g occupies sorted[offsets[g]:offsets[g+1]].
// Keys must lie in [0, buckets). The sort is stable (input order survives
// within a bucket) and deterministic across GOMAXPROCS values; above the
// grain threshold it runs as a blocked two-pass scatter — per-chunk bucket
// counts, a PrefixSum over the bucket-major count matrix, then a parallel
// stable placement pass.
func CountingSortByKey[T any](items []T, buckets int, key func(t T) int) (sorted []T, offsets []int) {
	n := len(items)
	_, count := chunkSpans(n)
	if count <= 1 || buckets*count > n {
		return countingSortSeq(items, buckets, key)
	}
	keys := make([]int32, n)
	ForChunks(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = int32(key(items[i]))
		}
	})
	// flat[b*count+c] holds chunk c's count for bucket b; the exclusive
	// prefix sum over this bucket-major layout yields, in one shot, every
	// (bucket, chunk) write cursor and hence the stable placement.
	flat := make([]int, buckets*count)
	ForChunks(n, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			flat[int(keys[i])*count+c]++
		}
	})
	total := PrefixSum(flat)
	_ = total
	offsets = make([]int, buckets+1)
	for b := 0; b < buckets; b++ {
		offsets[b] = flat[b*count]
	}
	offsets[buckets] = n
	sorted = make([]T, n)
	ForChunks(n, func(c, lo, hi int) {
		cur := make([]int, buckets)
		for b := 0; b < buckets; b++ {
			cur[b] = flat[b*count+c]
		}
		for i := lo; i < hi; i++ {
			k := keys[i]
			sorted[cur[k]] = items[i]
			cur[k]++
		}
	})
	return sorted, offsets
}

// countingSortSeq is the sequential counting sort behind CountingSortByKey.
func countingSortSeq[T any](items []T, buckets int, key func(t T) int) (sorted []T, offsets []int) {
	counts := make([]int, buckets+1)
	for _, it := range items {
		counts[key(it)+1]++
	}
	for i := 1; i <= buckets; i++ {
		counts[i] += counts[i-1]
	}
	offsets = counts
	sorted = make([]T, len(items))
	cursor := make([]int, buckets)
	copy(cursor, counts[:buckets])
	for _, it := range items {
		k := key(it)
		sorted[cursor[k]] = it
		cursor[k]++
	}
	return sorted, offsets
}
