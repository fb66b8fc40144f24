package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"rankedaccess/internal/order"
)

// SplittersPerShard is how many positions of each shard a handle prices
// once, when it is assembled, into its splitter table (the splitter
// sample of sample sort) — where the table is priced: a handle given
// its shards' groups reads the table off them instead, and prices
// nothing (see fillBoundaries). The first rounds of every rank search
// price pivots that depend on the shard totals and never on k, so the
// handle prices S = SplittersPerShard·P such pivots ahead and every
// search starts between the two that bracket its k, ≈ log_{m·P+1}(S+1)
// rounds in. Chosen by measurement, not a setting: on the cluster_read
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
// lane each (≈ 120 ms in a single lane, ≈ 20 ms for 1 024). Every one
// of these sweeps ran with the shards partitioned on the join variable
// y, before a lex spec defaulted to its order's leading variable; the
// value is settled and was not swept again under that partition, which
// reads its table off the groups.
const SplittersPerShard = 16384

// maxSplitterBytes caps a handle's table — S·(P+2) words: a global rank,
// an owner and P local ranks per splitter, no answer tuples, 3.1 MB at
// P = 4 — whatever P is: past P = 4 a priced table's per-shard count
// shrinks instead (to 124 at MaxShards), and a table read off the
// groups keeps every ⌈G/cap⌉-th of its G boundaries.
const maxSplitterBytes = 4 << 20

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

// fillSplitters prices the handle's splitter table — the fill of every
// handle not given its shards' groups (see NewRemote): its share of
// positions of every shard under its byte cap, spread and staggered as
// pickPivots spreads a round's, but no denser than one in every m·P (m
// = PivotsPerWindow): the two splitters that bracket a k then leave
// about the m·P open positions one round prices, and a denser table
// would only trade that round for a price per answer at Prepare and
// P+2 words per answer on the handle. The fill runs one lane per node —
// shard j's positions are lane node[j]'s: a goroutine with a probe of its own that prices its positions in
// batches of at most MaxPivots, one batch in flight, and stops before
// its next batch once ctx is cancelled or another lane failed. Lanes
// write disjoint rows and the table is sorted by global rank, so it is
// the one a single lane would price. A handle with fewer than two
// non-empty shards has nothing to search and gets no table.
func (h *Handle) fillSplitters(ctx context.Context, node []int) error {
	if slices.Max(h.totals) == h.total {
		return nil // at most one non-empty shard
	}
	p := len(h.totals)
	per := min(int64(SplittersPerShard), int64(maxSplitterBytes/(8*(p+2))/p))
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
	lanes = slices.DeleteFunc(lanes, func(at []int) bool { return len(at) == 0 })
	batches := 0
	for _, at := range lanes {
		batches += (len(at) + MaxPivots - 1) / MaxPivots
	}
	ranks := make([]int64, len(pos)*p)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	err := Scatter(len(lanes), func(i int) error {
		err := h.fillLane(ctx, lanes[i], shards, pos, ranks)
		if err != nil {
			cancel(err) // the other lanes stop before their next batch
		}
		return err
	})
	if err != nil {
		return context.Cause(ctx)
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
	t := splitters{sums: make([]int64, 0, len(by)), owner: make([]int, 0, len(by)), ranks: make([]int64, 0, len(ranks)), batches: batches, lanes: len(lanes)}
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

// fillBoundaries fills the handle's splitter table from the shards'
// groups instead of pricing it (see NewRemote). On a partition on the
// order's leading variable every group sits whole in one shard, so
// merging the P lists by value in the leading variable's direction
// walks the groups in global order, and at the first answer of a group
// every other shard's count of answers below it is the start of that
// shard's next group, or its total past its last: every group boundary
// is an exact splitter, read with no call to any node. Between two
// consecutive boundaries only one shard holds answers, so a search the
// two bracket is left with one open window — its final fetch. The table
// keeps the priced fill's caps: a boundary is kept at least m·P answers
// past the last kept one (smaller groups share a bracket, which a round
// then splits), and past rows splitters — maxSplitterBytes' worth, see
// NewRemote — only every ⌈G/rows⌉-th of the G kept is. Lists that
// disagree with the totals, are out of order, or hold a value in two
// shards fail the fill.
func (h *Handle) fillBoundaries(groups []Groups, dir order.Direction, rows int) error {
	p := len(h.totals)
	if len(groups) != p {
		return fmt.Errorf("shard: group lists for %d of %d shards", len(groups), p)
	}
	for j, g := range groups {
		if err := g.check(h.totals[j], dir); err != nil {
			return fmt.Errorf("shard: groups of shard %d: %w", j, err)
		}
	}
	if slices.Max(h.totals) == h.total {
		return nil // at most one non-empty shard
	}
	n, err := h.walkBoundaries(groups, dir, func(int, []int64, int64) {})
	if err != nil {
		return err
	}
	stride := max(1, (n+rows-1)/rows)
	t := splitters{sums: make([]int64, 0, n/stride), owner: make([]int, 0, n/stride), ranks: make([]int64, 0, n/stride*p)}
	i := 0
	_, err = h.walkBoundaries(groups, dir, func(s int, rk []int64, sum int64) {
		if i++; i%stride == 0 {
			t.sums, t.owner, t.ranks = append(t.sums, sum), append(t.owner, s), append(t.ranks, rk...)
		}
	})
	h.split = t
	return err
}

// walkBoundaries merges the shards' groups into global order and calls
// emit for the first answer of every non-empty group at least m·P
// answers past the last one emitted (rank 0 counting as emitted): s is
// its shard, rk[j] shard j's count of answers below it — a row of the
// splitter table, valid until emit returns — and sum their total, its
// global rank. It returns how many it emitted.
func (h *Handle) walkBoundaries(groups []Groups, dir order.Direction, emit func(s int, rk []int64, sum int64)) (int, error) {
	p := len(groups)
	next, rk := make([]int, p), make([]int64, p)
	start := func(j, i int) int64 {
		if i < len(groups[j].Starts) {
			return groups[j].Starts[i]
		}
		return h.totals[j]
	}
	gap, n := int64(PivotsPerWindow*p), 0
	var sum, last int64
	for {
		s := -1
		for j, g := range groups {
			if next[j] == len(g.Vals) {
				continue
			}
			if s < 0 {
				s = j
				continue
			}
			c := cmp.Compare(g.Vals[next[j]], groups[s].Vals[next[s]])
			if c == 0 {
				return n, fmt.Errorf("shard: value %d leads groups of shards %d and %d", g.Vals[next[j]], s, j)
			}
			if (c < 0) == (dir == order.Asc) {
				s = j
			}
		}
		if s < 0 {
			return n, nil
		}
		next[s]++
		end := start(s, next[s])
		if end > rk[s] && sum-last >= gap {
			emit(s, rk, sum)
			last, n = sum, n+1
		}
		sum += end - rk[s]
		rk[s] = end
	}
}

// check reports whether g can be a shard's groups of total answers:
// starts rising from 0 to at most total, values strictly in the
// direction's order.
func (g Groups) check(total int64, dir order.Direction) error {
	switch {
	case len(g.Vals) != len(g.Starts):
		return fmt.Errorf("%d values with %d starts", len(g.Vals), len(g.Starts))
	case len(g.Starts) == 0 && total > 0:
		return fmt.Errorf("no groups for %d answers", total)
	case len(g.Starts) > 0 && (g.Starts[0] != 0 || g.Starts[len(g.Starts)-1] > total):
		return fmt.Errorf("starts from %d to %d for %d answers", g.Starts[0], g.Starts[len(g.Starts)-1], total)
	}
	for i := 1; i < len(g.Vals); i++ {
		if g.Starts[i] < g.Starts[i-1] || (g.Vals[i] > g.Vals[i-1]) != (dir == order.Asc) || g.Vals[i] == g.Vals[i-1] {
			return fmt.Errorf("group %d out of order", i)
		}
	}
	return nil
}

// SplitterFill reports the handle's splitter table: its size, and the
// batches and lanes that priced it — none for a table read off the
// shards' groups.
func (h *Handle) SplitterFill() (splitters, batches, lanes int) {
	return len(h.split.sums), h.split.batches, h.split.lanes
}

// Splitters returns a copy of the global ranks of the handle's S
// splitters, ascending; the table occupies S·(P+2) words.
func (h *Handle) Splitters() []int64 {
	return append([]int64(nil), h.split.sums...)
}
