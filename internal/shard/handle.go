package shard

import (
	"context"
	"fmt"
	"sync"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// part is one shard's direct-access structure. access may return an
// answer aliasing the given probe buffer (layered structures) or the
// part's immutable storage (SUM / materialized); either way the result
// is valid until the next access with the same buffer. The error
// returns exist for parts served over the network (see NewRemote);
// in-process parts never fail a rank.
// The context parameter exists for the network path (deadlines, trace
// propagation); in-process parts ignore it, so it costs nothing there.
type part interface {
	total() int64
	rank(ctx context.Context, a order.Answer) (int64, bool, error)
	access(ctx context.Context, k int64, b *access.LexBuf) (order.Answer, error)
	newBuf() *access.LexBuf
}

// chunkedPart marks parts whose per-answer access pays a network round
// trip: AppendRange prefetches windows of their local answers through
// fetchRange instead of probing one answer at a time.
type chunkedPart interface {
	fetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error)
}

type lexPart struct{ la *access.Lex }

func (p lexPart) total() int64           { return p.la.Total() }
func (p lexPart) newBuf() *access.LexBuf { return p.la.NewBuf() }
func (p lexPart) rank(_ context.Context, a order.Answer) (int64, bool, error) {
	r, ex := p.la.Rank(a)
	return r, ex, nil
}
func (p lexPart) access(_ context.Context, k int64, b *access.LexBuf) (order.Answer, error) {
	return p.la.AccessInto(b, k)
}

type sumPart struct{ s *access.Sum }

func (p sumPart) total() int64           { return p.s.Total() }
func (p sumPart) newBuf() *access.LexBuf { return nil }
func (p sumPart) rank(_ context.Context, a order.Answer) (int64, bool, error) {
	r, ex := p.s.Rank(a)
	return r, ex, nil
}
func (p sumPart) access(_ context.Context, k int64, _ *access.LexBuf) (order.Answer, error) {
	return p.s.Access(k)
}

type matLexPart struct {
	m *access.Materialized
	l order.Lex
}

func (p matLexPart) total() int64           { return p.m.Total() }
func (p matLexPart) newBuf() *access.LexBuf { return nil }
func (p matLexPart) rank(_ context.Context, a order.Answer) (int64, bool, error) {
	r, ex := p.m.RankLex(a, p.l)
	return r, ex, nil
}
func (p matLexPart) access(_ context.Context, k int64, _ *access.LexBuf) (order.Answer, error) {
	return p.m.Access(k)
}

type matSumPart struct {
	m *access.Materialized
	w order.Sum
}

func (p matSumPart) total() int64           { return p.m.Total() }
func (p matSumPart) newBuf() *access.LexBuf { return nil }
func (p matSumPart) rank(_ context.Context, a order.Answer) (int64, bool, error) {
	r, ex := p.m.RankSum(a, p.w)
	return r, ex, nil
}
func (p matSumPart) access(_ context.Context, k int64, _ *access.LexBuf) (order.Answer, error) {
	return p.m.Access(k)
}

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

	parts  []part
	totals []int64
	total  int64
	cmp    func(a, b order.Answer) int

	// ranker, when non-nil, prices an answer on every shard in one
	// call (the network path batches the per-node rank RPCs and runs
	// nodes in parallel); nil falls back to per-part rank calls.
	ranker BatchRanker

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
	// pend/pi buffer prefetched windows of chunked (remote) parts
	// during AppendRange merges.
	pend [][]order.Answer
	pi   []int
}

func newHandle(q *cq.Query, pt Partitioning, parts []part, cmp func(a, b order.Answer) int) *Handle {
	h := &Handle{Query: q, Part: pt, parts: parts, cmp: cmp, totals: make([]int64, len(parts))}
	for i, p := range parts {
		h.totals[i] = p.total()
		h.total += h.totals[i]
	}
	h.probes.New = func() any {
		pr := &probe{
			bufs:  make([]*access.LexBuf, len(parts)),
			lo:    make([]int64, len(parts)),
			hi:    make([]int64, len(parts)),
			ranks: make([]int64, len(parts)),
			cur:   make([]order.Answer, len(parts)),
			idx:   make([]int64, len(parts)),
			pend:  make([][]order.Answer, len(parts)),
			pi:    make([]int, len(parts)),
		}
		for i, p := range parts {
			pr.bufs[i] = p.newBuf()
		}
		return pr
	}
	return h
}

// Total returns |Q(I)| (the sum of the per-shard answer counts).
func (h *Handle) Total() int64 { return h.total }

// Shards returns the shard count.
func (h *Handle) Shards() int { return len(h.parts) }

// PartTotals returns a copy of the per-shard answer counts.
func (h *Handle) PartTotals() []int64 {
	return append([]int64(nil), h.totals...)
}

func (h *Handle) getProbe() *probe  { return h.probes.Get().(*probe) }
func (h *Handle) putProbe(p *probe) { h.probes.Put(p) }

// locate finds the global k-th answer by binary-searching the global
// rank against per-shard answer counts. It keeps, per shard, the local
// index window that could still hold the k-th answer; each step probes
// the median candidate of the widest window, prices it on every shard
// (Rank = answers strictly below, O(log n) each), and either returns it
// (global rank k) or discards half of the widest window plus everything
// every other shard has priced on the wrong side. On return pr.ranks
// holds each shard's count of answers strictly below the result — the
// owner's entry is the result's local index — which AppendRange uses as
// its per-shard merge cursors. The returned answer may alias the
// owner's probe buffer in pr.
func (h *Handle) locate(ctx context.Context, pr *probe, k int64) (order.Answer, error) {
	if k < 0 || k >= h.total {
		return nil, access.ErrOutOfBound
	}
	lo, hi := pr.lo, pr.hi
	for i := range h.parts {
		lo[i], hi[i] = 0, h.totals[i]
	}
	// Each iteration halves some window; 64 bits per part bounds the
	// total number of halvings.
	maxIter := 64*len(h.parts) + 2
	for iter := 0; iter < maxIter; iter++ {
		s, width := -1, int64(0)
		for j := range h.parts {
			if w := hi[j] - lo[j]; w > width {
				s, width = j, w
			}
		}
		if s < 0 {
			break
		}
		m := lo[s] + width/2
		x, err := h.parts[s].access(ctx, m, pr.bufs[s])
		if err != nil {
			return nil, fmt.Errorf("shard: internal: part %d access(%d): %w", s, m, err)
		}
		if h.ranker != nil {
			// One scatter round: every node prices x on all its shards
			// in a single RPC, nodes run in parallel.
			if _, err := h.ranker.RankAll(ctx, x, pr.ranks); err != nil {
				return nil, err
			}
		} else {
			for j := range h.parts {
				if j == s {
					continue
				}
				rj, _, err := h.parts[j].rank(ctx, x)
				if err != nil {
					return nil, err
				}
				pr.ranks[j] = rj
			}
		}
		// The owner's rank of its own m-th answer is m by definition;
		// pinning it also shields the batched path from owner drift.
		pr.ranks[s] = m
		var r int64
		for j := range h.parts {
			r += pr.ranks[j]
		}
		switch {
		case r == k:
			return x, nil
		case r > k:
			// The k-th answer precedes x: its local index in any shard
			// is below that shard's count of answers preceding x.
			for j := range h.parts {
				if pr.ranks[j] < hi[j] {
					hi[j] = pr.ranks[j]
				}
			}
		default:
			// The k-th answer follows x: at least ranks[j] local
			// answers precede it everywhere, and x itself is excluded
			// in its own shard.
			for j := range h.parts {
				if pr.ranks[j] > lo[j] {
					lo[j] = pr.ranks[j]
				}
			}
			if m+1 > lo[s] {
				lo[s] = m + 1
			}
		}
	}
	return nil, fmt.Errorf("shard: internal: rank search did not converge for k=%d", k)
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
	x, err := h.locate(ctx, pr, k)
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
	x, err := h.locate(ctx, pr, k)
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
	if h.ranker != nil {
		pr := h.getProbe()
		defer h.putProbe(pr)
		exact, err := h.ranker.RankAll(ctx, a, pr.ranks)
		if err != nil {
			return 0, false, err
		}
		var k int64
		for _, r := range pr.ranks {
			k += r
		}
		return k, exact, nil
	}
	var k int64
	exact := false
	for _, p := range h.parts {
		r, ex, err := p.rank(ctx, a)
		if err != nil {
			return 0, false, err
		}
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
// cursor, then a P-way merge emits the window in order, costing one
// local O(log n) access per emitted answer plus a P-wide comparison.
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
	if k0 == 0 {
		for j := range h.parts {
			pr.idx[j] = 0
		}
	} else {
		if _, err := h.locate(ctx, pr, k0); err != nil {
			return dst, err
		}
		copy(pr.idx, pr.ranks)
	}
	for j := range h.parts {
		pr.cur[j] = nil
		pr.pend[j] = pr.pend[j][:0]
		pr.pi[j] = 0
		if err := h.fillCursor(ctx, pr, j, k1-k0); err != nil {
			return dst, err
		}
	}
	for n := k1 - k0; n > 0; n-- {
		best := -1
		for j := range h.parts {
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
		if err := h.fillCursor(ctx, pr, best, n-1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// rangeChunk caps one prefetched window of a chunked (remote) part,
// matching the engine's cursor batch so an NDJSON stream chunk costs
// O(P) range RPCs instead of one RPC per emitted row.
const rangeChunk = 256

// fillCursor makes pr.cur[j] hold part j's next answer (nil when the
// part is exhausted). Chunked parts are served from a prefetched
// window, refilled with a size scaled to the remaining merge demand —
// each shard contributes roughly remaining/P of the window, so that
// estimate (plus slack) usually makes one fetch per shard suffice.
func (h *Handle) fillCursor(ctx context.Context, pr *probe, j int, remaining int64) error {
	if pr.idx[j] >= h.totals[j] {
		pr.cur[j] = nil
		return nil
	}
	cp, chunked := h.parts[j].(chunkedPart)
	if !chunked {
		x, err := h.parts[j].access(ctx, pr.idx[j], pr.bufs[j])
		if err != nil {
			return fmt.Errorf("shard: internal: part %d access(%d): %w", j, pr.idx[j], err)
		}
		pr.cur[j] = x
		return nil
	}
	if pr.pi[j] >= len(pr.pend[j]) {
		want := remaining/int64(len(h.parts)) + 16
		if want > remaining {
			want = remaining
		}
		if want > rangeChunk {
			want = rangeChunk
		}
		if want < 1 {
			want = 1
		}
		hi := pr.idx[j] + want
		if hi > h.totals[j] {
			hi = h.totals[j]
		}
		rows, err := cp.fetchRange(ctx, pr.idx[j], hi)
		if err != nil {
			return fmt.Errorf("shard: part %d range [%d, %d): %w", j, pr.idx[j], hi, err)
		}
		if int64(len(rows)) != hi-pr.idx[j] {
			return fmt.Errorf("shard: part %d range [%d, %d) returned %d answers", j, pr.idx[j], hi, len(rows))
		}
		pr.pend[j], pr.pi[j] = rows, 0
	}
	pr.cur[j] = pr.pend[j][pr.pi[j]]
	return nil
}
