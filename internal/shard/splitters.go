package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// SplittersPerShard is how many positions of each shard a handle prices
// once, when it is assembled, into its splitter table (the splitter
// sample of sample sort): the first rounds of every rank search price
// pivots that depend on the shard totals and never on k, so the handle
// prices S = SplittersPerShard·P such pivots ahead and every search
// starts between the two that bracket its k, ≈ log_{m·P+1}(S+1) rounds
// in. Chosen by measurement, not a setting: on the cluster_read
// benchmark workload (P = 4, n ≈ 6·10⁸) no table, 256 and 1 024 per
// shard gave point medians of 2 327, 1 253 and 1 126–1 185 µs and 8.6,
// 4.7 and 3.9 rank RPCs per access; 1 024 beat 256 in ten of ten
// alternating pairs, and its fill — 16 rounds at Prepare against 4 —
// moved setup_s (≈ 0.7 s) in neither.
const SplittersPerShard = 1024

// maxSplitterBytes caps a handle's table — S·(P+2) words: a global rank,
// an owner and P local ranks per splitter, no answer tuples — whatever P
// is: past P = 10 the per-shard count shrinks instead (to 31 at
// MaxShards).
const maxSplitterBytes = 1 << 20

// inProcessSplitterShare divides the share of a handle over in-process
// parts: there a splitter saves a search one pivot's P descents, not two
// round trips, and costs the build as much to price. On the benchmark's
// four in-process shards (n ≈ 6·10⁸, build 150–210 ms) a full share costs
// the build 9–15 ms for 31 → 13.3 µs per access, a quarter 2 ms (1 %)
// for 15.1 µs, a sixteenth 0.5 ms for 17.6 µs.
const inProcessSplitterShare = 4

// splittersPerShard is SplittersPerShard under the byte cap.
func splittersPerShard(p int) int {
	return min(SplittersPerShard, maxSplitterBytes/(8*(p+2))/p)
}

// splitters is a handle's table of pivots priced ahead of any search,
// in ascending global rank: splitter i is the answer at local index
// ranks[i*P+owner[i]] of shard owner[i], shard j holds ranks[i*P+j]
// answers strictly below it, and sums[i] is their sum — its global rank.
// The zero table seeds nothing.
type splitters struct {
	sums  []int64
	owner []int
	ranks []int64
}

// seed narrows a fresh search for k by the two splitters that bracket
// it, through the search's own narrowing rule. A splitter of rank k
// leaves only its own position open, which the search then fetches from
// its owner without a round.
func (t *splitters) seed(pr *probe, k int64) {
	p := len(pr.lo)
	i, _ := slices.BinarySearch(t.sums, k)
	for c := max(i-1, 0); c <= i && c < len(t.sums); c++ {
		s, rk := t.owner[c], t.ranks[c*p:(c+1)*p]
		if pr.narrow(k, s, rk) {
			copy(pr.lo, rk)
			copy(pr.hi, rk)
			pr.hi[s]++
			return
		}
	}
}

// fillSplitters prices the handle's splitter table: splittersPerShard
// positions of every shard wider than that, spread and staggered as
// pickPivots spreads a round's, in ⌈S/MaxPivots⌉ ordinary rounds —
// between which a cancelled ctx stops it. A handle with fewer than two
// non-empty shards never runs a round and gets no table; neither does
// one whose shards are all narrower than their share, which a round or
// two search anyway.
func (h *Handle) fillSplitters(ctx context.Context) error {
	p := len(h.totals)
	per := splittersPerShard(p)
	if h.ranker == nil {
		per /= inProcessSplitterShare
	}
	wide, nonEmpty := 0, 0
	for _, t := range h.totals {
		if t > int64(per) {
			wide++
		}
		if t > 0 {
			nonEmpty++
		}
	}
	if wide == 0 || nonEmpty < 2 {
		return nil
	}
	var (
		shards = make([]int, 0, per*wide)
		pos    = make([]int64, 0, per*wide)
		o      int
	)
	for j, t := range h.totals {
		if t > int64(per) {
			shards, pos = spread(shards, pos, j, 0, t, per, wide, o)
			o++
		}
	}
	ranks := make([]int64, 0, len(pos)*p)
	pr := h.getProbe()
	defer h.putProbe(pr)
	for at := 0; at < len(pos); at += MaxPivots {
		end := min(at+MaxPivots, len(pos))
		pr.pivShard, pr.pivPos = append(pr.pivShard[:0], shards[at:end]...), append(pr.pivPos[:0], pos[at:end]...)
		_, rk, err := h.price(ctx, pr)
		if err != nil {
			return fmt.Errorf("shard: pricing splitters %d to %d of %d: %w", at, end, len(pos), err)
		}
		ranks = append(ranks, rk...)
	}
	// Into ascending global rank (distinct answers, distinct ranks).
	sums, by := make([]int64, len(pos)), make([]int, len(pos))
	for i := range by {
		by[i] = i
		for _, r := range ranks[i*p : (i+1)*p] {
			sums[i] += r
		}
	}
	slices.SortFunc(by, func(a, b int) int { return cmp.Compare(sums[a], sums[b]) })
	t := splitters{sums: make([]int64, 0, len(by)), owner: make([]int, 0, len(by)), ranks: make([]int64, 0, len(ranks))}
	for _, i := range by {
		t.sums, t.owner = append(t.sums, sums[i]), append(t.owner, shards[i])
		t.ranks = append(t.ranks, ranks[i*p:(i+1)*p]...)
	}
	h.split = t
	return nil
}

// Splitters returns a copy of the global ranks of the handle's S
// splitters, ascending; the table occupies S·(P+2) words.
func (h *Handle) Splitters() []int64 {
	return append([]int64(nil), h.split.sums...)
}
