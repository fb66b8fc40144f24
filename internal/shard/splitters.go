package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
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
// alternating pairs. Swept again once a round fetched from one node
// (n ≈ 1.3·10⁹, three alternating pairs against 1 024 each): 4 096,
// 8 192 and 16 384 per shard read 2 387–2 610, 2 574–2 868 and
// 2 876–3 180 point reads/s where 1 024 read 1 868–2 331, and setup_s
// 0.80–0.94, 0.89–1.32 and 0.99–1.28 s, all inside 1 024's 0.77–1.49 s,
// so the densest stays: 1.25 rank rounds and 3.5 RPCs per access, where
// 1 024 left 2.0 and 5.0, for a fill of ≈ 65 ms over two nodes in one
// lane each (≈ 120 ms in a single lane, ≈ 20 ms for 1 024).
const SplittersPerShard = 16384

// maxSplitterBytes caps a handle's table — S·(P+2) words: a global rank,
// an owner and P local ranks per splitter, no answer tuples, 3.1 MB at
// P = 4 — whatever P is: past P = 4 the per-shard count shrinks instead
// (to 124 at MaxShards).
const maxSplitterBytes = 4 << 20

// inProcessSplitters and inProcessSplitterBytes are the share and the
// cap of a handle over in-process parts — 256 per shard up to P = 10, 7
// at MaxShards: there a splitter saves a search one pivot's P descents,
// not two round trips, and costs the build as much to price. On the
// benchmark's four in-process shards (n ≈ 6·10⁸, build 150–210 ms),
// 31 µs per access without a table, 1 024 per shard cost the build
// 9–15 ms for 13.3 µs, 256 per shard 2 ms (1 %) for 15.1 µs, 64 per
// shard 0.5 ms for 17.6 µs.
const (
	inProcessSplitters     = 256
	inProcessSplitterBytes = 256 << 10
)

// splitters is a handle's table of pivots priced ahead of any search,
// in ascending global rank: splitter i is the answer at local index
// ranks[i*P+owner[i]] of shard owner[i], shard j holds ranks[i*P+j]
// answers strictly below it, and sums[i] is their sum — its global rank.
// The zero table seeds nothing.
type splitters struct {
	sums  []int64
	owner []int
	ranks []int64
	// batches and lanes record how the fill priced it.
	batches, lanes int
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

// fillSplitters prices the handle's splitter table: its share of
// positions of every shard under its byte cap, spread and staggered as
// pickPivots spreads a round's, but no denser than one in every m·P (m
// = PivotsPerWindow): the two splitters that bracket a k then leave
// about the m·P open positions one round prices, and a denser table
// would only trade that round for a price per answer at Prepare and
// P+2 words per answer on the handle. The fill runs one lane per node —
// shard j's positions are lane node[j]'s, all lane 0 in process: a
// goroutine with a probe of its own that prices its positions in
// batches of at most MaxPivots, one batch in flight, and stops before
// its next batch once ctx is cancelled or another lane failed. Lanes
// write disjoint rows and the table is sorted by global rank, so it is
// the one a single lane would price. A handle with fewer than two
// non-empty shards has nothing to search and gets no table.
func (h *Handle) fillSplitters(ctx context.Context, node []int) error {
	if slices.Max(h.totals) == h.total {
		return nil // at most one non-empty shard
	}
	p, per, bytes := len(h.totals), int64(SplittersPerShard), maxSplitterBytes
	if h.ranker == nil {
		per, bytes = inProcessSplitters, inProcessSplitterBytes
	}
	per = min(per, int64(bytes/(8*(p+2))/p))
	var (
		shards []int
		pos    []int64
		lanes  = make([][]int, slices.Max(node)+1) // indices into pos
	)
	for j, t := range h.totals {
		from := len(pos)
		shards, pos = spread(shards, pos, j, 0, t, int(min(per, t/int64(PivotsPerWindow*p))), p, j)
		for i := from; i < len(pos); i++ {
			lanes[node[j]] = append(lanes[node[j]], i)
		}
	}
	ranks := make([]int64, len(pos)*p)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	batches, busy := 0, 0
	for _, at := range lanes {
		if len(at) == 0 {
			continue
		}
		batches, busy = batches+(len(at)+MaxPivots-1)/MaxPivots, busy+1
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.fillLane(ctx, at, shards, pos, ranks); err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return err
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
	t := splitters{sums: make([]int64, 0, len(by)), owner: make([]int, 0, len(by)), ranks: make([]int64, 0, len(ranks)), batches: batches, lanes: busy}
	for _, i := range by {
		t.sums, t.owner = append(t.sums, sums[i]), append(t.owner, shards[i])
		t.ranks = append(t.ranks, ranks[i*p:(i+1)*p]...)
	}
	h.split = t
	return nil
}

// fillLane prices one lane's positions, pos[i] of shard shards[i] for
// every i in at, into their rows of ranks, MaxPivots at a time.
func (h *Handle) fillLane(ctx context.Context, at, shards []int, pos, ranks []int64) error {
	p := len(h.totals)
	pr := h.getProbe()
	defer h.putProbe(pr)
	for b := 0; b < len(at); b += MaxPivots {
		batch := at[b:min(b+MaxPivots, len(at))]
		pr.pivShard, pr.pivPos = pr.pivShard[:0], pr.pivPos[:0]
		for _, i := range batch {
			pr.pivShard, pr.pivPos = append(pr.pivShard, shards[i]), append(pr.pivPos, pos[i])
		}
		_, rk, err := h.price(ctx, pr)
		if err != nil {
			return fmt.Errorf("shard: pricing splitters %d to %d of a lane's %d: %w", b, b+len(batch), len(at), err)
		}
		for x, i := range batch {
			copy(ranks[i*p:(i+1)*p], rk[x*p:(x+1)*p])
		}
	}
	return nil
}

// SplitterFill reports the handle's splitter table: its size, and the
// batches and lanes that priced it.
func (h *Handle) SplitterFill() (splitters, batches, lanes int) {
	return len(h.split.sums), h.split.batches, h.split.lanes
}

// Splitters returns a copy of the global ranks of the handle's S
// splitters, ascending; the table occupies S·(P+2) words.
func (h *Handle) Splitters() []int64 {
	return append([]int64(nil), h.split.sums...)
}
