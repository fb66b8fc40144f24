package shard

import (
	"context"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// RemotePart is one shard's structure served by another process, as
// far as a single shard can be addressed on its own: its answer count
// and a windowed range fetch, so merges amortize the per-call round
// trip. Point probes go through the BatchRanker, which batches them
// across shards. Implementations must be safe for concurrent use and
// must return answers that do not alias shared mutable state.
type RemotePart interface {
	Total() int64
	FetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error)
}

// BatchRanker is the batched probe surface of a remote partitioning:
// every call addresses many shards at once, and the network
// implementation sends each node at most one RPC per hop — each node
// serves all its owned shards locally — nodes in parallel. A locate
// round takes its pivots from one node's windows (see pickPivots), so
// it is one Price: one fetch from that node, which prices the pivots on
// its own shards in the same call, then one rank call to each other
// node — two hops however many pivots it prices (at most
// PivotsPerWindow·P; a batch of the splitter fill, which prices fixed
// positions when the handle is assembled, up to MaxPivots, and reaches
// every node holding one of them). Implementations must be safe for
// concurrent use.
type BatchRanker interface {
	// Price returns, for every i, the answer at local index pos[i] of
	// shard shards[i], in request order, and unless ranks is nil prices
	// each on every shard of the partitioning: ranks[i*P+j] becomes shard
	// j's count of answers strictly below answers[i]. A node holding
	// some of the positions fetches and prices them in one call; a node
	// holding not all of them prices the others in a second. With ranks
	// nil only the fetch is sent. There is one answer per position, and
	// the answers must not alias shared mutable state.
	Price(ctx context.Context, shards []int, pos []int64, ranks []int64) ([]order.Answer, error)
	// RankAll prices every answer on every shard of the partitioning:
	// ranks[i*P+j] becomes shard j's count of answers strictly below
	// answers[i], and exact[i] reports whether some shard holds
	// answers[i].
	RankAll(ctx context.Context, answers []order.Answer, ranks []int64) (exact []bool, err error)
	// Owners maps every shard to the node serving it, nodes numbered
	// from 0. The caller must not modify it.
	Owners() []int
}

// NewRemote assembles a Handle over network-served parts: the same
// rank-merge machinery as the in-process sharded path (so distributed
// answers are byte-identical by construction), with point probes and
// rank pricing going through the batch ranker and range windows through
// parts[i]. cmp must realize the same total order every node's
// structures sort by; completed is the realized lex order of layered
// builds (zero for SUM orders). Assembling prices the handle's splitter
// table through the ranker — ⌈S/MaxPivots⌉ rounds under ctx — and fails
// if that fails: there is no table-less handle.
func NewRemote(ctx context.Context, q *cq.Query, pt Partitioning, parts []RemotePart, cmp func(a, b order.Answer) int, ranker BatchRanker, completed order.Lex) (*Handle, error) {
	totals := make([]int64, len(parts))
	for i, rp := range parts {
		totals[i] = rp.Total()
	}
	h := newHandle(q, pt, totals, cmp)
	h.remote, h.ranker = parts, ranker
	h.Completed = completed
	if err := h.fillSplitters(ctx); err != nil {
		return nil, err
	}
	return h, nil
}
