// Package selection implements the paper's selection algorithms:
//
//   - deterministic linear-time (weighted) selection [Blum et al.;
//     Johnson–Mizoguchi], used as a primitive;
//   - selection by lexicographic orders for all free-connex CQs in ⟨1, n⟩
//     (Theorem 6.1, via the histogram of Lemma 6.5 and the iterative
//     algorithm of Lemma 6.6);
//   - selection by SUM in ⟨1, n log n⟩ for free-connex CQs with at most
//     two free-maximal hyperedges (Theorem 7.3), via maximal contraction
//     (Lemma 7.7) and selection over bucketed sorted matrices — the
//     Frederickson–Johnson setting of Theorem 7.9, realized here with an
//     exact bisection over the finite float64 sum space (same overall
//     O(n log n) bound; see DESIGN.md for the substitution note).
//
// Lex selection runs no semijoin reduction. Lemma 6.5's histogram of a
// variable v is the bottom-up counting DP over the join tree rooted at
// a node holding v: a dangling row counts 0 there, so each root row's
// count is exactly the number of answers extending it (see histogram).
// Lemma 6.6's loop then fixes v's chosen value by compacting the nodes
// in place. A call allocates FreeReduce's copy of its input (the
// projection and its radix sort scratch, about twice the input's flat
// bytes), one 8-byte count per row of that copy, and per step the
// histogram's items and the key indexes of the rows that count;
// WeightedSelect partitions in place and allocates nothing. At
// n = 65 536 rows per relation that is 3.1× the input's flat bytes
// (TestSelectLexAllocationBound holds it ≤ 4×).
package selection

import (
	"cmp"
	"slices"

	"rankedaccess/internal/access"
)

// ErrOutOfBound is returned when the requested index is outside
// [0, |Q(I)|). It is the same sentinel the access package uses, so
// callers can handle both layers uniformly.
var ErrOutOfBound = access.ErrOutOfBound

// WItem is a key with a non-negative multiplicity, for weighted selection.
type WItem[K cmp.Ordered] struct {
	Key    K
	Weight int64
}

// WeightedSelect returns the key κ such that the total weight of items
// with key < κ is ≤ k and the total weight of items with key ≤ κ is > k
// (i.e. position k, 0-based, falls inside κ's weight range), together
// with the total weight strictly before κ. Items sharing a key count as
// one key. It runs in deterministic linear time via median-of-medians
// pivoting and allocates nothing.
//
// The items slice is reordered. k must satisfy 0 ≤ k < total weight.
func WeightedSelect[K cmp.Ordered](items []WItem[K], k int64) (key K, before int64, ok bool) {
	var total int64
	for _, it := range items {
		total += it.Weight
	}
	if k < 0 || k >= total {
		var zero K
		return zero, 0, false
	}
	key, before = kth(items, k, false)
	return key, before, true
}

// kth is WeightedSelect without the bounds check, partitioning items in
// place. With unit set every item weighs 1, whatever its Weight.
func kth[K cmp.Ordered](items []WItem[K], k int64, unit bool) (key K, before int64) {
	for len(items) > 1 {
		pivot := medianOfMedians(items)
		lt, gt, wLess, wEqual := partition3(items, pivot, unit)
		switch {
		case k < wLess:
			items = items[:lt]
		case k < wLess+wEqual:
			return pivot, before + wLess
		default:
			items = items[gt:]
			before += wLess + wEqual
			k -= wLess + wEqual
		}
	}
	return items[0].Key, before
}

// partition3 reorders items into keys < pivot, == pivot and the rest
// (items[:lt], items[lt:gt], items[gt:]) and returns the weights of the
// first two parts.
func partition3[K cmp.Ordered](items []WItem[K], pivot K, unit bool) (lt, gt int, wLess, wEqual int64) {
	i, gt := 0, len(items)
	for i < gt {
		w := items[i].Weight
		if unit {
			w = 1
		}
		switch key := items[i].Key; {
		case key < pivot:
			wLess += w
			items[lt], items[i] = items[i], items[lt]
			lt++
			i++
		case key == pivot:
			wEqual += w
			i++
		default:
			gt--
			items[i], items[gt] = items[gt], items[i]
		}
	}
	return lt, gt, wLess, wEqual
}

// medianOfMedians returns a pivot key guaranteed to split the items
// 30/70 (the classic groups-of-five construction, by key only; weights
// do not matter for the pivot quality because the recursion re-weighs).
// It moves each group's median to the front of items and selects their
// median there.
func medianOfMedians[K cmp.Ordered](items []WItem[K]) K {
	n := len(items)
	if n <= 10 {
		var keys [10]K
		for i, it := range items {
			keys[i] = it.Key
		}
		slices.Sort(keys[:n])
		return keys[n/2]
	}
	m := 0
	for i := 0; i < n; i += 5 {
		group := items[i:min(i+5, n)]
		var five [5]K
		for j, it := range group {
			five[j] = it.Key
		}
		slices.Sort(five[:len(group)])
		med := five[len(group)/2]
		for j := range group {
			if group[j].Key == med {
				items[m], group[j] = group[j], items[m]
				break
			}
		}
		m++
	}
	key, _ := kth(items[:m], int64(m/2), true)
	return key
}

// Nth returns the k-th smallest (0-based) of keys in deterministic linear
// time. The slice is not modified.
func Nth[K cmp.Ordered](keys []K, k int64) (K, bool) {
	items := make([]WItem[K], len(keys))
	for i, x := range keys {
		items[i] = WItem[K]{Key: x, Weight: 1}
	}
	key, _, ok := WeightedSelect(items, k)
	return key, ok
}
