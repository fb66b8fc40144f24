package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Handle merges P per-shard structures sharing one total answer order
// into a single logical accessor. It is immutable after construction
// and safe for any number of concurrent goroutines: per-probe scratch
// comes from an internal pool, so steady-state accesses allocate
// nothing beyond what the caller's destination slice needs.
type Handle struct {
	// Query is the query the parts were built for (the FD-extension
	// when the caller extended before sharding).
	Query *cq.Query
	// Part records how the instance was split.
	Part Partitioning
	// Completed is the realized total lex order of layered parts (zero
	// for SUM and materialized-SUM groups).
	Completed order.Lex

	// Exactly one of parts and router is set: in-process structures
	// (Merge), or shards served by other processes, which the router
	// probes in batches (NewRemote). Which one it is decides how wide a
	// rank round is — a network round trip is worth many pivots, an
	// in-process call is worth one. A probe keeps the buffers it
	// borrowed from its parts for good (see newHandle); a located
	// answer may alias one, valid until the probe's next access.
	parts  []access.Structure
	router *router

	totals []int64
	total  int64
	cmp    func(a, b order.Answer) int
	// split starts every rank search several rounds in (see splitters);
	// filled once by Merge / NewRemote, immutable afterwards.
	split splitters

	probes sync.Pool
}

// probe is the per-call scratch of one merge operation.
type probe struct {
	bufs  []*access.LexBuf
	lo    []int64
	hi    []int64
	ranks []int64
	cur   []order.Answer
	idx   []int64
	// lim bounds a range merge's cursors: no answer of shard j ranked
	// inside the window sits at or past local index lim[j].
	lim []int64
	// One rank round's pivots: xs[i] is the answer at local index
	// pivPos[i] of shard pivShard[i], priced into
	// pivRanks[i*P : (i+1)*P] (see price).
	pivShard []int
	pivPos   []int64
	xs       []order.Answer
	pivRanks []int64
	// nodeOpen sums each node's open window widths (see pickPivots).
	nodeOpen []int64
	// pend/pi buffer prefetched windows of remote parts during
	// AppendRange merges.
	pend [][]order.Answer
	pi   []int
}

func newHandle(q *cq.Query, pt Partitioning, totals []int64, cmp func(a, b order.Answer) int) *Handle {
	h := &Handle{Query: q, Part: pt, cmp: cmp, totals: totals}
	for _, t := range totals {
		h.total += t
	}
	p := len(totals)
	h.probes.New = func() any {
		pr := &probe{
			bufs:     make([]*access.LexBuf, p),
			lo:       make([]int64, p),
			hi:       make([]int64, p),
			ranks:    make([]int64, p),
			cur:      make([]order.Answer, p),
			idx:      make([]int64, p),
			lim:      make([]int64, p),
			pivShard: make([]int, 1),
			pivPos:   make([]int64, 1),
			xs:       make([]order.Answer, 1),
			nodeOpen: make([]int64, p),
			pend:     make([][]order.Answer, p),
			pi:       make([]int, p),
		}
		for i, part := range h.parts {
			pr.bufs[i] = part.GetBuf()
		}
		return pr
	}
	return h
}

// Total returns |Q(I)| (the sum of the per-shard answer counts).
func (h *Handle) Total() int64 { return h.total }

// Shards returns the shard count.
func (h *Handle) Shards() int { return len(h.totals) }

// PartTotals returns a copy of the per-shard answer counts.
func (h *Handle) PartTotals() []int64 {
	return append([]int64(nil), h.totals...)
}

func (h *Handle) getProbe() *probe  { return h.probes.Get().(*probe) }
func (h *Handle) putProbe(p *probe) { h.probes.Put(p) }

// locate finds the global k-th answer by searching the global rank
// against per-shard answer counts. It keeps, per shard, the local index
// window that could still hold the k-th answer. Each round prices
// pivots — local answers taken from the open windows — on every shard
// (Rank = answers strictly below, O(log n) each) and applies one
// narrowing rule per pivot (see narrow): a pivot of global rank k is the
// result, otherwise every shard discards what the pivot priced on the
// wrong side of k. The handle's splitter table holds S such pivots
// priced ahead of time, so the search starts from the two that bracket
// k — windows about 1/(S+1) as wide as the shards, ⌈log_{m·P+1}(n/(S+1))⌉
// rounds to go instead of ⌈log_{m·P+1} n⌉ — and only then pays for
// rounds. In process a round is one pivot, the median of the widest
// window; over remote parts a round is a batch taken from one node's
// windows (see pickPivots), because there a round costs two network
// hops however many pivots ride in it. Once a single window is left
// open the result's local index is determined and, with fetch set, is
// fetched directly: the table keeps no answers, so every access reaches
// the owner of its result at least once. On return pr.ranks holds each
// shard's count of answers strictly below the result — the owner's
// entry is the result's local index — which AppendRange uses as its
// per-shard merge cursors. AppendRange searches without fetch, since
// the result is its owner's first row of the window anyway, and may get
// a nil answer. The returned answer may alias the owner's probe buffer
// in pr.
func (h *Handle) locate(ctx context.Context, pr *probe, k int64, fetch bool) (order.Answer, error) {
	if k < 0 || k >= h.total {
		return nil, access.ErrOutOfBound
	}
	p := len(h.totals)
	lo, hi := pr.lo, pr.hi
	for j := range lo {
		lo[j], hi[j] = 0, h.totals[j]
	}
	h.split.seed(pr, k)
	// A round at least halves every window it takes pivots from: in
	// process the widest, remote every window of the node holding the
	// most open positions — at least 1/P of them — each cut below a
	// quarter. 64 bits per part bounds the number of such rounds.
	maxIter := 64*p + 2
	for iter := 0; iter < maxIter; iter++ {
		s, width, open := -1, int64(0), 0
		for j := range lo {
			w := hi[j] - lo[j]
			if w > 0 {
				open++
			}
			if w > width {
				s, width = j, w
			}
		}
		if open == 0 {
			break
		}
		if open == 1 {
			// Every other shard's count below the result is pinned
			// (lo = hi), so the result is the one answer of shard s
			// that makes the counts sum to k.
			m := k
			for j := range lo {
				if j != s {
					m -= lo[j]
					pr.ranks[j] = lo[j]
				}
			}
			if m < lo[s] || m >= hi[s] {
				break
			}
			pr.ranks[s] = m
			if !fetch {
				return nil, nil
			}
			return h.accessOne(ctx, pr, s, m)
		}
		if h.router != nil {
			h.pickPivots(pr, open)
			h.router.searches.Add(1)
		} else {
			pr.pivShard, pr.pivPos = append(pr.pivShard[:0], s), append(pr.pivPos[:0], lo[s]+width/2)
		}
		xs, ranks, err := h.price(ctx, pr)
		if err != nil {
			return nil, err
		}
		for i, x := range xs {
			if pr.narrow(k, pr.pivShard[i], ranks[i*p:(i+1)*p]) {
				return x, nil
			}
		}
	}
	return nil, fmt.Errorf("shard: internal: rank search did not converge for k=%d", k)
}

// narrow is the search's one narrowing rule: it applies a priced pivot
// — the answer at local index rk[s] of shard s, with rk[j] answers
// strictly below it in shard j — to the windows of the search for k. It
// reports whether the pivot is the k-th answer itself; pr.ranks then
// holds rk.
func (pr *probe) narrow(k int64, s int, rk []int64) bool {
	var r int64
	for _, rj := range rk {
		r += rj
	}
	switch {
	case r == k:
		copy(pr.ranks, rk)
		return true
	case r > k:
		// The k-th answer precedes the pivot: its local index in any
		// shard is below that shard's count of answers preceding the
		// pivot.
		for j, rj := range rk {
			if rj < pr.hi[j] {
				pr.hi[j] = rj
			}
		}
	default:
		// The k-th answer follows the pivot: at least rk[j] local
		// answers precede it everywhere, and the pivot itself is
		// excluded in its own shard.
		for j, rj := range rk {
			if rj > pr.lo[j] {
				pr.lo[j] = rj
			}
		}
		if rk[s]+1 > pr.lo[s] {
			pr.lo[s] = rk[s] + 1
		}
	}
	return false
}

// accessOne fetches the answer at local index m of shard s.
func (h *Handle) accessOne(ctx context.Context, pr *probe, s int, m int64) (order.Answer, error) {
	if h.router == nil {
		x, err := h.parts[s].AccessInto(pr.bufs[s], m)
		if err != nil {
			return nil, fmt.Errorf("shard: internal: part %d access(%d): %w", s, m, err)
		}
		return x, nil
	}
	// A caller that gave up costs the nodes nothing further, not even
	// the one fetch a search the table settled would still send.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	xs, err := h.router.price(ctx, append(pr.pivShard[:0], s), append(pr.pivPos[:0], m), nil)
	if err != nil {
		return nil, err
	}
	return xs[0], nil
}

// PivotsPerWindow is how many pivots one remote rank round spends per
// open window. A round costs two network hops whatever it carries, and
// m·P staggered pivots cut the candidates to about 1/(m·P+1), so rounds
// fall from log₂ n to log_{m·P+1} n. Chosen by measurement, not a
// setting: on the cluster_read benchmark workload
// (P = 4, n ≈ 10⁹) m = 4, 6, 8, 12 gave point medians of 2.9–3.1, 2.7–
// 3.1, 2.7 and 2.8 ms and m ≥ 16 was slower still — past 8 the extra
// pivots cost the nodes more CPU than the rounds they save. Swept again
// behind the splitter table, whose remaining ≈ 2 rounds price pivots
// that sit close together: m = 4, 8, 12, 16 gave medians of 1 145,
// 1 096, 1 078 and 1 152 µs over three alternating runs each, every one
// inside the others' 1.04–1.21 ms spread, so 8 stays.
const PivotsPerWindow = 8

// MaxPivots caps the pivots of one rank round, and with it what a
// single batched access or rank call may ask of a node (Owned enforces
// it, like maxOwnedRange for Range). At least MaxShards, so every open
// window gets a pivot in every round.
const MaxPivots = 256

const _ = uint(MaxPivots - MaxShards) // does not compile if a round cannot hold a pivot per shard

// pickPivots chooses one remote round's pivots into pr.pivShard and
// pr.pivPos, all from one source node: the one with the most open
// positions, ties to the lowest index. Shards of one partitioning hold
// statistically alike slices of the order, so the round's whole budget
// — m per open window, at most MaxPivots — spread over the source's
// windows alone narrows as well as spread over all, and the source
// prices its own pivots in the fetch. A source window no wider than its
// share is taken whole (so the search ends by pricing the result
// itself), a wider one contributes evenly spaced positions, at most
// 1/per of the window apart (see spread). The choice depends on the
// windows alone, so a probe's rounds repeat exactly.
func (h *Handle) pickPivots(pr *probe, open int) {
	owners := h.router.owner
	clear(pr.nodeOpen)
	for j, l := range pr.lo {
		pr.nodeOpen[owners[j]] += pr.hi[j] - l
	}
	src, srcOpen := slices.Index(pr.nodeOpen, slices.Max(pr.nodeOpen)), 0
	for j, l := range pr.lo {
		if owners[j] == src && pr.hi[j] > l {
			srcOpen++
		}
	}
	per, stagger := min(PivotsPerWindow*open, MaxPivots)/srcOpen, srcOpen
	if per < PivotsPerWindow {
		// More open windows than a full round carries (MaxShards keeps
		// per ≥ 4): plain quantiles — a stagger over that many windows
		// would push a window's few pivots toward its edge.
		stagger = 1
	}
	pr.pivShard, pr.pivPos = pr.pivShard[:0], pr.pivPos[:0]
	o := 0
	for j, l := range pr.lo {
		w := pr.hi[j] - l
		if w <= 0 || owners[j] != src {
			continue
		}
		if w <= int64(per) {
			for m := l; m < pr.hi[j]; m++ {
				pr.pivShard, pr.pivPos = append(pr.pivShard, j), append(pr.pivPos, m)
			}
		} else {
			pr.pivShard, pr.pivPos = spread(pr.pivShard, pr.pivPos, j, l, w, per, stagger, o)
		}
		o++
	}
}

// spread appends per evenly spaced positions of shard j's window
// [l, l+w), w ≥ per — every position when w = per — to shards and pos.
// The o-th of stagger windows is offset by o/stagger of a step: shards
// of one partitioning hold statistically alike slices of the order, so
// unstaggered quantiles would price P near-equal pivots per step and
// waste all but one.
func spread(shards []int, pos []int64, j int, l, w int64, per, stagger, o int) ([]int, []int64) {
	// l + w·num/den without overflowing on 2^62-answer shards.
	den := int64(per*stagger + 1)
	q, r := w/den, w%den
	for i := 0; i < per; i++ {
		num := int64(i*stagger + o%stagger + 1)
		shards, pos = append(shards, j), append(pos, l+q*num+r*num/den)
	}
	return shards, pos
}

// price runs one rank round over the pivots in pr.pivShard and
// pr.pivPos: it fetches them and prices each on every shard, so that
// ranks[i*P+j] is shard j's count of answers strictly below xs[i]. Over
// remote shards that is one router.price — one fetch-and-price per
// owning node, one rank call per node owning not all pivots; in process
// one AccessInto and P−1 Ranks per pivot, and xs[i] aliases its shard's
// probe buffer — a later pivot of the same shard overwrites it (a
// search prices one pivot a round, the splitter fill keeps only the
// ranks).
func (h *Handle) price(ctx context.Context, pr *probe) ([]order.Answer, []int64, error) {
	p := len(h.totals)
	n := len(pr.pivPos) * p
	if cap(pr.pivRanks) < n {
		pr.pivRanks = make([]int64, n)
	}
	xs, ranks := pr.xs[:0], pr.pivRanks[:n]
	if h.router == nil {
		for i, s := range pr.pivShard {
			x, err := h.accessOne(ctx, pr, s, pr.pivPos[i])
			if err != nil {
				return nil, nil, err
			}
			for j, part := range h.parts {
				if j != s {
					ranks[i*p+j], _ = part.Rank(x)
				}
			}
			xs = append(xs, x)
		}
		pr.xs = xs
	} else {
		// A caller that gave up stops the search between rounds: no
		// further call leaves for any node.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var err error
		if xs, err = h.router.price(ctx, pr.pivShard, pr.pivPos, ranks); err != nil {
			return nil, nil, err
		}
	}
	// The owner's rank of its own m-th answer is m by definition;
	// pinning it also shields the batched path from owner drift.
	for i, s := range pr.pivShard {
		ranks[i*p+s] = pr.pivPos[i]
	}
	return xs, ranks, nil
}

// Access returns the global k-th answer in the shared order. The answer
// is freshly allocated; use AppendTuple for the allocation-free path.
func (h *Handle) Access(k int64) (order.Answer, error) {
	return h.AccessCtx(context.Background(), k)
}

// AccessCtx is Access with a caller context threaded through remote
// parts (deadline and trace propagation); in-process parts ignore it.
func (h *Handle) AccessCtx(ctx context.Context, k int64) (order.Answer, error) {
	pr := h.getProbe()
	x, err := h.locate(ctx, pr, k, true)
	if err != nil {
		h.putProbe(pr)
		return nil, err
	}
	out := append(order.Answer(nil), x...)
	h.putProbe(pr)
	return out, nil
}

// AppendTuple appends the projection of the global k-th answer onto the
// given head variables to dst and returns the extended slice,
// allocating only when dst lacks capacity.
func (h *Handle) AppendTuple(dst []values.Value, head []cq.VarID, k int64) ([]values.Value, error) {
	return h.AppendTupleCtx(context.Background(), dst, head, k)
}

// AppendTupleCtx is AppendTuple with a caller context threaded through
// remote parts.
func (h *Handle) AppendTupleCtx(ctx context.Context, dst []values.Value, head []cq.VarID, k int64) ([]values.Value, error) {
	pr := h.getProbe()
	x, err := h.locate(ctx, pr, k, true)
	if err != nil {
		h.putProbe(pr)
		return dst, err
	}
	for _, v := range head {
		dst = append(dst, x[v])
	}
	h.putProbe(pr)
	return dst, nil
}

// Rank returns the number of answers strictly preceding the tuple in
// the global order (the sum of per-shard ranks) and whether the tuple
// is an answer of some shard. The error is always nil for in-process
// parts; remote parts surface transport failures through it.
func (h *Handle) Rank(a order.Answer) (int64, bool, error) {
	return h.RankCtx(context.Background(), a)
}

// RankCtx is Rank with a caller context threaded through remote parts.
func (h *Handle) RankCtx(ctx context.Context, a order.Answer) (int64, bool, error) {
	var k int64
	if h.router != nil {
		pr := h.getProbe()
		defer h.putProbe(pr)
		// One priced round: the answer on every shard of every node.
		exact, err := h.router.rankOthers(h.router.round(ctx, 1), []order.Answer{a}, nil, pr.ranks)
		if err != nil {
			return 0, false, err
		}
		for _, r := range pr.ranks {
			k += r
		}
		return k, exact[0], nil
	}
	exact := false
	for _, p := range h.parts {
		r, ex := p.Rank(a)
		k += r
		exact = exact || ex
	}
	return k, exact, nil
}

// Inverted returns the global index of an answer, or ErrNotAnAnswer.
func (h *Handle) Inverted(a order.Answer) (int64, error) {
	k, ok, err := h.Rank(a)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, access.ErrNotAnAnswer
	}
	return k, nil
}

// AppendRange appends the head projections of the global answers
// k0 ≤ k < k1 to dst: one rank search finds each shard's starting
// cursor, the splitter table bounds how far each cursor may move, then
// a P-way merge emits the window in order. In process each shard's
// cursor probes consecutive local ranks through the probe's own buffer
// for that shard, so an emitted answer costs one O(log n) descent per
// shard at the start of the window and a successor step (see
// access.LexBuf) plus a P-wide comparison from then on. Over remote
// parts each shard's rows arrive in windows (see prime).
func (h *Handle) AppendRange(dst []values.Value, head []cq.VarID, k0, k1 int64) ([]values.Value, error) {
	return h.AppendRangeCtx(context.Background(), dst, head, k0, k1)
}

// AppendRangeCtx is AppendRange with a caller context threaded through
// remote parts.
func (h *Handle) AppendRangeCtx(ctx context.Context, dst []values.Value, head []cq.VarID, k0, k1 int64) ([]values.Value, error) {
	if k0 >= k1 {
		return dst, nil
	}
	if k0 < 0 || k1 > h.total {
		return dst, access.ErrOutOfBound
	}
	pr := h.getProbe()
	defer h.putProbe(pr)
	clear(pr.idx)
	if k0 > 0 {
		if _, err := h.locate(ctx, pr, k0, false); err != nil {
			return dst, err
		}
		copy(pr.idx, pr.ranks)
	}
	// Every answer of shard j from local index ranks[c·P+j] on follows
	// splitter c, the first ranked k1 or later, so none of them is in the
	// window: a bound the table proves, the shard's total without one.
	c, _ := slices.BinarySearch(h.split.sums, k1)
	for j := range pr.lim {
		pr.lim[j] = h.totals[j]
		if c < len(h.split.sums) {
			pr.lim[j] = h.split.ranks[c*len(pr.lim)+j]
		}
		pr.cur[j], pr.pend[j], pr.pi[j] = nil, pr.pend[j][:0], 0
	}
	if h.router != nil {
		if err := h.prime(ctx, pr, k1-k0); err != nil {
			return dst, err
		}
	}
	for j := range pr.cur {
		if err := h.fillCursor(ctx, pr, j, k1-k0); err != nil {
			return dst, err
		}
	}
	for n := k1 - k0; n > 0; n-- {
		best := -1
		for j := range pr.cur {
			if pr.cur[j] == nil {
				continue
			}
			if best < 0 || h.cmp(pr.cur[j], pr.cur[best]) < 0 {
				best = j
			}
		}
		if best < 0 {
			return dst, fmt.Errorf("shard: internal: merge ran dry with %d answers pending", n)
		}
		for _, v := range head {
			dst = append(dst, pr.cur[best][v])
		}
		pr.idx[best]++
		pr.pi[best]++
		pr.cur[best] = nil
		if n == 1 {
			break // the window is complete: no probe (or RPC) for a row nobody reads
		}
		if err := h.fillCursor(ctx, pr, best, n-1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// rangeSlack, plus a quarter of an even share — n/(4·P) of an n-row
// range, about 3σ of one shard's count among 512 answers spread evenly
// over four — pads a primed window past its part's expected share, so
// that a share somewhat above its estimate still arrives in one fetch.
const rangeSlack = 16

// prime fetches the first window of every remote part its bound leaves
// answers, in one parallel scatter, so a range pays one round trip
// before its first row instead of P sequential ones. Part j holds
// g = lim[j]−idx[j] of the G answers from k0 up to the bounds, so of the
// window's n rows it is expected to supply ⌈n·g/G⌉: its window is that
// share plus the slack (see fetchWindow for the caps). Together the
// primed windows hold at most about 1.25·n + P·rangeSlack rows, where
// fetching every bound whole could take P·n: on a table sparse next to
// the window, over shards that interleave.
func (h *Handle) prime(ctx context.Context, pr *probe, n int64) error {
	var gap int64
	for j, l := range pr.lim {
		gap += l - pr.idx[j]
	}
	return Scatter(len(h.totals), func(j int) error {
		g := pr.lim[j] - pr.idx[j]
		if g == 0 {
			return nil
		}
		// In floating point: n·g overflows int64 on 2^62-answer shards.
		share := int64(math.Ceil(float64(n)*float64(g)/float64(gap))) + n/int64(4*len(h.totals)) + rangeSlack
		return h.fetchWindow(ctx, pr, j, min(share, n))
	})
}

// fetchWindow fetches remote shard j's next window into pr.pend[j]: want
// answers from its cursor on, but none at or past its bound and no more
// than one Range call may carry.
func (h *Handle) fetchWindow(ctx context.Context, pr *probe, j int, want int64) error {
	k0 := pr.idx[j]
	k1 := k0 + min(want, pr.lim[j]-k0, maxOwnedRange)
	rows, err := h.router.nodes[h.router.owner[j]].Range(ctx, j, k0, k1)
	if err != nil {
		return fmt.Errorf("shard: part %d range [%d, %d): %w", j, k0, k1, err)
	}
	if int64(len(rows)) != k1-k0 {
		return fmt.Errorf("shard: part %d range [%d, %d) returned %d answers", j, k0, k1, len(rows))
	}
	pr.pend[j], pr.pi[j] = rows, 0
	return nil
}

// fillCursor makes pr.cur[j] hold part j's next answer, nil once the
// part reached its bound. Remote parts are served from their fetched
// window; one that runs dry is refilled with all the merge may still
// take from it — the remaining rows, up to its bound — so a part whose
// bound fits one Range call is refilled at most once.
func (h *Handle) fillCursor(ctx context.Context, pr *probe, j int, remaining int64) error {
	if pr.idx[j] >= pr.lim[j] {
		pr.cur[j] = nil
		return nil
	}
	if h.router == nil {
		x, err := h.accessOne(ctx, pr, j, pr.idx[j])
		pr.cur[j] = x
		return err
	}
	if pr.pi[j] >= len(pr.pend[j]) {
		if err := h.fetchWindow(ctx, pr, j, remaining); err != nil {
			return err
		}
	}
	pr.cur[j] = pr.pend[j][pr.pi[j]]
	return nil
}
