// Package heapx provides the two heap shapes the nearest-neighbor
// algorithms need: a bounded max-heap that maintains the k closest
// candidates seen so far, and a generic min-heap used as the frontier of
// best-first (priority) kd-tree searches.
package heapx

import "pimkd/internal/geom"

// Candidate is one kNN candidate: a squared distance plus an opaque payload
// identifier (point index), optionally carrying the candidate's coordinates.
// P may be nil on paths that never need it; when set it aliases the stored
// point (callers must not mutate it). The canonical order ignores P, so a
// candidate set is the same whether or not coordinates travel with it.
type Candidate struct {
	Dist2 float64
	ID    int32
	P     geom.Point
}

// Less is the canonical candidate order: ascending Dist2 with ties broken
// by ascending ID. Every kNN surface in the repository selects and reports
// candidates in this total order, which makes answers a pure function of
// the point multiset — independent of tree shape, traversal order, or how
// the points are partitioned across shards (the distributed scatter/gather
// path depends on this to merge per-shard top-k sets exactly).
func (c Candidate) Less(o Candidate) bool {
	if c.Dist2 != o.Dist2 {
		return c.Dist2 < o.Dist2
	}
	return c.ID < o.ID
}

// KBest maintains the k smallest candidates (canonical (Dist2, ID) order)
// seen so far as a max-heap, so the current worst candidate is inspectable
// in O(1). The zero value is unusable; construct with NewKBest.
type KBest struct {
	k    int
	heap []Candidate
}

// NewKBest returns a candidate set with capacity k >= 1.
func NewKBest(k int) *KBest {
	if k < 1 {
		panic("heapx: KBest needs k >= 1")
	}
	return &KBest{k: k, heap: make([]Candidate, 0, k)}
}

// K returns the set's capacity k.
func (b *KBest) K() int { return b.k }

// Reset empties the set, retaining capacity.
func (b *KBest) Reset() { b.heap = b.heap[:0] }

// Len returns the number of candidates currently held.
func (b *KBest) Len() int { return len(b.heap) }

// Full reports whether k candidates are held.
func (b *KBest) Full() bool { return len(b.heap) == b.k }

// Bound returns the current pruning radius squared: the distance of the
// worst held candidate when full, +Inf otherwise (represented as MaxFloat).
// Because ties are broken by ID, a traversal must explore regions at
// distance *equal* to Bound too (prune only strictly-greater cells): an
// unseen point at exactly Bound with a smaller ID still displaces the
// current worst.
func (b *KBest) Bound() float64 {
	if len(b.heap) < b.k {
		return maxFloat
	}
	return b.heap[0].Dist2
}

const maxFloat = 1.797693134862315708145274237317043567981e+308

// Offer considers a candidate and keeps it if it is among the k best so
// far in the canonical (Dist2, ID) order. It returns true if the candidate
// was kept.
func (b *KBest) Offer(dist2 float64, id int32) bool {
	return b.OfferCand(Candidate{Dist2: dist2, ID: id})
}

// OfferCand is Offer with the full candidate, preserving any attached
// coordinates through the heap.
func (b *KBest) OfferCand(c Candidate) bool {
	if len(b.heap) < b.k {
		b.heap = append(b.heap, c)
		b.siftUp(len(b.heap) - 1)
		return true
	}
	if !c.Less(b.heap[0]) {
		return false
	}
	b.heap[0] = c
	b.siftDown(0)
	return true
}

// Items returns the held candidates in unspecified order. The slice aliases
// internal storage and is invalidated by further Offer/Reset calls.
func (b *KBest) Items() []Candidate { return b.heap }

// Sorted returns the held candidates in ascending canonical (Dist2, ID)
// order, consuming the heap (the set is empty afterwards).
func (b *KBest) Sorted() []Candidate {
	return b.SortedInto(make([]Candidate, 0, len(b.heap)))
}

// SortedInto appends the held candidates to dst in ascending canonical
// (Dist2, ID) order and returns the extended slice, consuming the heap as
// Sorted does. It allocates nothing when dst has room for Len candidates.
func (b *KBest) SortedInto(dst []Candidate) []Candidate {
	lo := len(dst)
	dst = append(dst, b.heap...)
	out := dst[lo:]
	for i := len(b.heap) - 1; i >= 0; i-- {
		out[i] = b.heap[0]
		last := len(b.heap) - 1
		b.heap[0] = b.heap[last]
		b.heap = b.heap[:last]
		if last > 0 {
			b.siftDown(0)
		}
	}
	return dst
}

func (b *KBest) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.heap[parent].Less(b.heap[i]) {
			return
		}
		b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
		i = parent
	}
}

func (b *KBest) siftDown(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && b.heap[big].Less(b.heap[l]) {
			big = l
		}
		if r < n && b.heap[big].Less(b.heap[r]) {
			big = r
		}
		if big == i {
			return
		}
		b.heap[i], b.heap[big] = b.heap[big], b.heap[i]
		i = big
	}
}

// Min is a generic min-heap keyed on a float64 priority, used as the
// frontier of best-first kd-tree traversals. The zero value is an empty
// heap ready for use.
type Min[T any] struct {
	keys []float64
	vals []T
}

// Len returns the number of queued items.
func (h *Min[T]) Len() int { return len(h.keys) }

// Reset empties the heap, retaining capacity.
func (h *Min[T]) Reset() {
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
}

// Push inserts val with the given priority key.
func (h *Min[T]) Push(key float64, val T) {
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, val)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.keys[parent], h.keys[i] = h.keys[i], h.keys[parent]
		h.vals[parent], h.vals[i] = h.vals[i], h.vals[parent]
		i = parent
	}
}

// Pop removes and returns the minimum-key item. It panics on an empty heap.
func (h *Min[T]) Pop() (key float64, val T) {
	key, val = h.keys[0], h.vals[0]
	last := len(h.keys) - 1
	h.keys[0], h.vals[0] = h.keys[last], h.vals[last]
	h.keys, h.vals = h.keys[:last], h.vals[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.keys[l] < h.keys[small] {
			small = l
		}
		if r < last && h.keys[r] < h.keys[small] {
			small = r
		}
		if small == i {
			break
		}
		h.keys[i], h.keys[small] = h.keys[small], h.keys[i]
		h.vals[i], h.vals[small] = h.vals[small], h.vals[i]
		i = small
	}
	return key, val
}

// MinKey returns the smallest key without removing it; +Inf-like sentinel
// (maxFloat) on empty.
func (h *Min[T]) MinKey() float64 {
	if len(h.keys) == 0 {
		return maxFloat
	}
	return h.keys[0]
}
