// Package shardtest serves owned shard builds to a remote shard.Handle
// without a network, for tests: every owned build is a shard.Node whose
// calls reach Owned.AccessBatch, Owned.RankBatch and Owned.Range
// directly, so the handle's router — the one a coordinator's RPCs leave
// through — splits, scatters and places exactly as it does over a
// cluster, minus the socket.
package shardtest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
)

// Loopback is one counting shard.Node per owned build of one
// partitioning. It counts what crosses the would-be wire and can delay
// or observe it.
type Loopback struct {
	owned  []*shard.Owned // the nodes
	shards [][]int        // each node's owned shards, ascending

	// AccessCalls, RankCalls and RangeCalls count the calls the nodes
	// receive, RangeRows the answers the range fetches returned; Pivots
	// sums the positions and answers the calls carried, MaxBatch is the
	// largest single call. Rounds counts the handle's search rounds (a
	// search's rounds, not its final fetch), MaxSources the most nodes
	// one priced round fetched from. They count probes: Handle moves
	// what assembling the handle cost — its splitter fill — into
	// FillCalls and FillMaxBatch and hands the handle out with the
	// counters at zero.
	AccessCalls, RankCalls, RangeCalls, Rounds atomic.Int64
	RangeRows                                  atomic.Int64
	Pivots, MaxBatch, MaxSources               atomic.Int64
	FillCalls, FillMaxBatch                    int64

	mu      sync.Mutex
	sources map[int64]int // fetches per priced round, by Round.Seq

	// Delay is slept at the start of every call, standing in for the
	// round trip.
	Delay time.Duration
	// OnCall, when set, runs at the start of every call that is sent;
	// OnRange, when set, then sees each range fetch's shard and window.
	// The router calls the nodes in parallel, and so do concurrent
	// probes and the splitter fill's lanes: both hooks run concurrently.
	OnCall  func()
	OnRange func(shard int, k0, k1 int64)
	// Wrap, when set, stands between the handle and the nodes: Handle
	// routes node i's calls through Wrap(i, node i), so a test can watch
	// them. Its calls run concurrently too.
	Wrap func(i int, n shard.Node) shard.Node
}

// New wraps the owned builds of one partitioning, one node each.
func New(owned ...*shard.Owned) *Loopback {
	l := &Loopback{owned: owned, sources: map[int64]int{}}
	for _, o := range owned {
		l.shards = append(l.shards, o.Shards())
	}
	return l
}

// Handle assembles the remote handle over the nodes, which between them
// must own every shard; k must be the kind the owned builds were built
// with.
func (l *Loopback) Handle(ctx context.Context, k shard.Kind) (*shard.Handle, error) {
	o := l.owned[0]
	nodes, totals := make([]shard.Node, len(l.owned)), make([]int64, o.Part.P)
	for i, on := range l.owned {
		nodes[i] = node{l, on, l.shards[i]}
		if l.Wrap != nil {
			nodes[i] = l.Wrap(i, nodes[i])
		}
		for _, s := range l.shards[i] {
			totals[s], _ = on.Total(s) // on owns s by construction
		}
	}
	h, err := shard.NewRemote(ctx, o.Query, o.Part, k.Comparator(o.Query, o.Completed()), o.Completed(), nodes, l.shards, totals, &l.Rounds)
	l.FillCalls = l.AccessCalls.Swap(0) + l.RankCalls.Swap(0)
	l.FillMaxBatch = l.MaxBatch.Swap(0)
	l.Pivots.Store(0)
	l.MaxSources.Store(0)
	clear(l.sources)
	return h, err
}

// raise lifts m to at least n.
func raise(m *atomic.Int64, n int) {
	for {
		v := m.Load()
		if int64(n) <= v || m.CompareAndSwap(v, int64(n)) {
			return
		}
	}
}

func (l *Loopback) call(ctx context.Context, calls *atomic.Int64, n int) error {
	calls.Add(1)
	l.Pivots.Add(int64(n))
	raise(&l.MaxBatch, n)
	// Like an RPC client: a call whose caller already gave up is
	// counted but never sent; one in flight completes.
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.OnCall != nil {
		l.OnCall()
	}
	time.Sleep(l.Delay)
	return nil
}

// node is one owned build as a shard.Node.
type node struct {
	l      *Loopback
	o      *shard.Owned
	shards []int
}

func (n node) AccessBatch(ctx context.Context, shards []int, pos []int64) ([]order.Answer, []int64, error) {
	sources := 1 // a plain fetch is one position's
	if rd, ok := shard.RoundOf(ctx); ok {
		n.l.mu.Lock()
		n.l.sources[rd.Seq]++
		sources = n.l.sources[rd.Seq]
		n.l.mu.Unlock()
	}
	raise(&n.l.MaxSources, sources)
	if err := n.l.call(ctx, &n.l.AccessCalls, len(pos)); err != nil {
		return nil, nil, err
	}
	return n.o.AccessBatch(shards, pos, n.shards)
}

func (n node) RankBatch(ctx context.Context, answers []order.Answer) ([]int64, []bool, error) {
	if err := n.l.call(ctx, &n.l.RankCalls, len(answers)); err != nil {
		return nil, nil, err
	}
	return n.o.RankBatch(answers, n.shards)
}

func (n node) Range(ctx context.Context, s int, k0, k1 int64) ([]order.Answer, error) {
	if err := n.l.call(ctx, &n.l.RangeCalls, 0); err != nil {
		return nil, err
	}
	if n.l.OnRange != nil {
		n.l.OnRange(s, k0, k1)
	}
	rows, err := n.o.Range(s, k0, k1)
	n.l.RangeRows.Add(int64(len(rows)))
	return rows, err
}
