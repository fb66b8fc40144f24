package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Node is one process serving some shards of a remote partitioning,
// reached through its three probe calls. Ranks are over the node's
// owned shards in the order NewRemote was given them:
// ranks[i*len(owned)+j] is the j-th owned shard's count of answers
// strictly below the i-th answer. Every call of a priced rank round
// carries its Round in ctx (see RoundOf). Implementations must be safe
// for concurrent use and must return answers that do not alias shared
// mutable state.
type Node interface {
	// AccessBatch returns the answer at local index pos[i] of owned
	// shard shards[i], in request order, each priced on the owned
	// shards when priced is set; unpriced, it returns no ranks.
	AccessBatch(ctx context.Context, shards []int, pos []int64, priced bool) (answers []order.Answer, ranks []int64, err error)
	// RankBatch prices every answer on the owned shards; exact[i]
	// reports whether one of them holds answers[i].
	RankBatch(ctx context.Context, answers []order.Answer) (ranks []int64, exact []bool, err error)
	// Range appends one owned shard's local answers k0 ≤ k < k1 to
	// rows, each the row of all the query's variables, and returns the
	// extended slice.
	Range(ctx context.Context, shard int, k0, k1 int64, rows []values.Value) ([]values.Value, error)
}

// Round identifies a priced rank round to the Node calls it makes: Seq
// numbers a handle's priced rounds from 1, Pivots counts the answers
// the round prices. A round's pivots come from one node — a search
// round's (see pickPivots) and a fill batch's alike — so it sends every
// node one call: the fetch to that node, a rank call to each other.
type Round struct {
	Seq    int64
	Pivots int
}

type roundKey struct{}

// RoundOf returns the priced round a Node call belongs to; ok is false
// for a plain fetch (a search's final one) and for range fetches.
func RoundOf(ctx context.Context) (rd Round, ok bool) {
	rd, ok = ctx.Value(roundKey{}).(Round)
	return rd, ok
}

// router routes a remote handle's probes to its nodes: every hop is one
// call per node involved, nodes in parallel, each serving all its owned
// shards, so a rank round costs two sequential hops whatever P and the
// pivot count are.
type router struct {
	nodes []Node
	owned [][]int // node → its shards, in reply order
	owner []int   // shard → its node
	// rounds numbers the priced rounds; searches counts the search
	// rounds (see locate) for the caller of NewRemote.
	rounds   atomic.Int64
	searches *atomic.Int64
}

// NewRemote assembles a Handle over shards served by nodes — other
// processes, or one in-process Node (see Merge), so distributed answers
// are byte-identical to a merge in one process by construction — with
// every probe routed to the nodes. Node i serves the shards owned[i], in the
// order its ranks list them, and totals[j] is shard j's answer count.
// cmp must realize the same total order every node's structures sort
// by; completed is the realized lex order of layered builds (zero for
// SUM orders). The handle adds its search rounds to searches.
//
// Assembling fills the handle's splitter table, and fails if that
// fails: there is no table-less handle. With groups — shard j's are
// groups[j], which needs pt to partition on completed's leading
// variable — the table is read off the groups' boundaries and no node
// is called (see fillBoundaries). Without, it is priced through the
// nodes, one lane of rounds per node, under ctx (see fillSplitters).
func NewRemote(ctx context.Context, q *cq.Query, pt Partitioning, cmp func(a, b order.Answer) int, completed order.Lex,
	nodes []Node, owned [][]int, totals []int64, groups []Groups, searches *atomic.Int64) (*Handle, error) {
	r := &router{nodes: nodes, owned: owned, owner: slices.Repeat([]int{-1}, len(totals)), searches: searches}
	for i, shards := range owned {
		for _, s := range shards {
			r.owner[s] = i
		}
	}
	if s := slices.Index(r.owner, -1); s >= 0 {
		return nil, fmt.Errorf("shard: shard %d has no node", s)
	}
	h := newHandle(q, pt, totals, cmp)
	h.router, h.Completed = r, completed
	var err error
	switch {
	case groups == nil:
		err = h.fillSplitters(ctx, r.owner)
	case len(completed.Entries) == 0 || completed.Entries[0].Var != pt.Var:
		err = fmt.Errorf("shard: group lists over a partition on %q, which does not lead the order", pt.VarName)
	default:
		err = h.fillBoundaries(groups, completed.Entries[0].Dir, maxSplitterBytes/(8*(len(totals)+2)))
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// nodeBatch is one node's share of a batched access.
type nodeBatch struct {
	node   int
	at     []int // indices into the request
	shards []int
	pos    []int64
}

// split divides a batched access by owner, keeping request order within
// a node. One counting pass sizes every slice, so a split allocates five
// times whatever the request's length and the number of nodes — the
// count table, the batches, and one backing array per field — where
// appending from nil regrew three slices per node per round.
func (r *router) split(shards []int, pos []int64) ([]nodeBatch, error) {
	counts := make([]int, len(r.nodes))
	owners := 0
	for _, s := range shards {
		if s < 0 || s >= len(r.owner) {
			return nil, fmt.Errorf("shard: access of shard %d outside [0, %d)", s, len(r.owner))
		}
		if counts[r.owner[s]]++; counts[r.owner[s]] == 1 {
			owners++
		}
	}
	batches := make([]nodeBatch, 0, owners)
	at, sh, ps := make([]int, len(shards)), make([]int, len(shards)), make([]int64, len(shards))
	off := 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		counts[i] = len(batches) // from here on: the node's batch
		end := off + n
		batches = append(batches, nodeBatch{node: i, at: at[off:off:end], shards: sh[off:off:end], pos: ps[off:off:end]})
		off = end
	}
	for i, s := range shards {
		b := &batches[counts[r.owner[s]]]
		b.at, b.shards, b.pos = append(b.at, i), append(b.shards, s), append(b.pos, pos[i])
	}
	return batches, nil
}

// round numbers a new priced round of the given pivots into ctx.
func (r *router) round(ctx context.Context, pivots int) context.Context {
	return context.WithValue(ctx, roundKey{}, Round{Seq: r.rounds.Add(1), Pivots: pivots})
}

// place writes request answer a's ranks on a node's shards, row[j]
// being the node's j-th shard's, into its row of ranks.
func (r *router) place(ranks []int64, a, node int, row []int64) {
	for j, s := range r.owned[node] {
		ranks[a*len(r.owner)+s] = row[j]
	}
}

// price runs one priced round: it returns, for every i, the answer at
// local index pos[i] of shard shards[i], in request order, fetched with
// one AccessBatch per owning node, and prices each on every shard:
// ranks[i*P+j] becomes shard j's count of answers strictly below
// answers[i]. Each fetch prices its answers on its own node's shards,
// and one RankBatch per node owning not all of them prices the rest
// (see rankOthers). A round's pivots come from one node, so a round is
// one access plus one rank call per other node — two hops however many
// pivots it prices. A search's final fetch is not a round and skips the
// router (see Handle.accessOne).
func (r *router) price(ctx context.Context, shards []int, pos []int64, ranks []int64) ([]order.Answer, error) {
	batches, err := r.split(shards, pos)
	if err != nil {
		return nil, err
	}
	ctx = r.round(ctx, len(pos))
	out := make([]order.Answer, len(pos))
	err = Scatter(len(batches), func(i int) error {
		b := &batches[i]
		got, rk, err := r.nodes[b.node].AccessBatch(ctx, b.shards, b.pos, true)
		if err != nil {
			return err
		}
		for j, a := range b.at {
			out[a] = got[j]
			r.place(ranks, a, b.node, rk[j*len(r.owned[b.node]):])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = r.rankOthers(ctx, out, shards, ranks)
	return out, err
}

// rankJob is one node's RankBatch: answers xs, which are the request's
// answers at[x], and the exact flags it returned.
type rankJob struct {
	node int
	xs   []order.Answer
	at   []int
	ex   []bool
}

// rankOthers prices xs on the shards of every node but the one owning
// each — xs[x] is from shard shards[x], or from no node when shards is
// nil — with one RankBatch per node that does not own all of them,
// carrying only those it does not own, nodes in parallel. exact[x]
// reports whether a node priced on holds xs[x].
func (r *router) rankOthers(ctx context.Context, xs []order.Answer, shards []int, ranks []int64) ([]bool, error) {
	jobs := make([]rankJob, 0, len(r.nodes))
	for i := range r.nodes {
		jb := rankJob{node: i, xs: make([]order.Answer, 0, len(xs)), at: make([]int, 0, len(xs))}
		for x := range xs {
			if shards == nil || r.owner[shards[x]] != i {
				jb.at, jb.xs = append(jb.at, x), append(jb.xs, xs[x])
			}
		}
		if len(jb.at) > 0 {
			jobs = append(jobs, jb)
		}
	}
	err := Scatter(len(jobs), func(k int) (err error) {
		jb := &jobs[k]
		var got []int64
		if got, jb.ex, err = r.nodes[jb.node].RankBatch(ctx, jb.xs); err != nil {
			return err
		}
		for x, a := range jb.at {
			r.place(ranks, a, jb.node, got[x*len(r.owned[jb.node]):])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exact := make([]bool, len(xs))
	for _, jb := range jobs {
		for x, held := range jb.ex {
			exact[jb.at[x]] = exact[jb.at[x]] || held
		}
	}
	return exact, nil
}

// Scatter runs fn(0) … fn(n-1) in parallel and returns the first
// failure in index order. The last call runs on the caller's goroutine:
// a scatter to one node spawns nothing and allocates nothing, one to
// two nodes spawns one.
func Scatter(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	if n > 0 {
		errs[n-1] = fn(n - 1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
