// Package shardtest serves owned shard builds as the remote surface of
// a shard.Handle without a network, for tests: the batched calls reach
// Owned.AccessBatch and Owned.RankBatch per owner exactly as a
// coordinator's RPCs reach its nodes, minus the socket.
package shardtest

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
)

// Loopback is a shard.BatchRanker (and the source of the matching
// shard.RemoteParts) over the owned builds of one partitioning. It
// counts what crosses the would-be wire and can delay or observe it.
type Loopback struct {
	owned []*shard.Owned // the "nodes"
	owner []int          // global shard → index into owned

	// AccessCalls, RankCalls and RangeCalls count the calls the owners
	// receive — one fetch-and-price per owner holding a requested
	// position, one rank call per owner priced on — and range fetches,
	// RangeRows the answers those returned;
	// Pivots sums the positions and answers they carried, MaxBatch is
	// the largest single call. Rounds counts the Price calls that price
	// (a search's rounds, not its final fetch), MaxSources the most
	// owners one Price fetched from. They count probes: Handle moves what
	// assembling the handle cost — its splitter fill — into FillCalls
	// and FillMaxBatch and hands the handle out with the counters at
	// zero.
	AccessCalls, RankCalls, RangeCalls, Rounds atomic.Int64
	RangeRows                                  atomic.Int64
	Pivots, MaxBatch, MaxSources               atomic.Int64
	FillCalls, FillMaxBatch                    int64

	// Delay is slept at the start of every call, standing in for the
	// round trip.
	Delay time.Duration
	// OnCall, when set, runs at the start of every call that is sent;
	// OnRange, when set, then sees each range fetch's shard and window.
	OnCall  func()
	OnRange func(shard int, k0, k1 int64)
}

// New wraps the owned builds of one partitioning; between them they
// must own every shard.
func New(owned ...*shard.Owned) (*Loopback, error) {
	l := &Loopback{owned: owned, owner: make([]int, owned[0].Part.P)}
	for s := range l.owner {
		l.owner[s] = -1
	}
	for i, o := range owned {
		for _, s := range o.Shards() {
			l.owner[s] = i
		}
	}
	for s, i := range l.owner {
		if i < 0 {
			return nil, fmt.Errorf("shardtest: shard %d has no owner", s)
		}
	}
	return l, nil
}

// Handle assembles the remote handle over the loopback; k must be the
// kind the owned builds were built with.
func (l *Loopback) Handle(ctx context.Context, k shard.Kind) (*shard.Handle, error) {
	o := l.owned[0]
	parts := make([]shard.RemotePart, len(l.owner))
	for s := range parts {
		parts[s] = loopPart{l: l, s: s}
	}
	h, err := shard.NewRemote(ctx, o.Query, o.Part, parts, k.Comparator(o.Query, o.Completed()), l, o.Completed())
	l.FillCalls = l.AccessCalls.Swap(0) + l.RankCalls.Swap(0)
	l.FillMaxBatch = l.MaxBatch.Swap(0)
	l.Pivots.Store(0)
	l.Rounds.Store(0)
	l.MaxSources.Store(0)
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

// Owners implements shard.BatchRanker.
func (l *Loopback) Owners() []int { return l.owner }

// Price implements shard.BatchRanker: one Owned.AccessBatch per owner
// holding a requested position, which prices its answers on that
// owner's shards, then — when ranks is set — one Owned.RankBatch per
// owner of the answers it does not hold.
func (l *Loopback) Price(ctx context.Context, shards []int, pos []int64, ranks []int64) ([]order.Answer, error) {
	out := make([]order.Answer, len(pos))
	sources := 0
	for i, o := range l.owned {
		var at, ss []int
		var ks []int64
		for j, s := range shards {
			if l.owner[s] == i {
				at, ss, ks = append(at, j), append(ss, s), append(ks, pos[j])
			}
		}
		if len(at) == 0 {
			continue
		}
		sources++
		if err := l.call(ctx, &l.AccessCalls, len(at)); err != nil {
			return nil, err
		}
		got, rk, err := o.AccessBatch(ss, ks, o.Shards())
		if err != nil {
			return nil, err
		}
		for j, a := range at {
			out[a] = got[j]
		}
		l.place(ranks, o, at, rk)
	}
	raise(&l.MaxSources, sources)
	if ranks == nil {
		return out, nil
	}
	l.Rounds.Add(1)
	_, err := l.rankOthers(ctx, out, shards, ranks)
	return out, err
}

// RankAll implements shard.BatchRanker: one Owned.RankBatch per owner.
func (l *Loopback) RankAll(ctx context.Context, answers []order.Answer, ranks []int64) ([]bool, error) {
	return l.rankOthers(ctx, answers, nil, ranks)
}

// rankOthers prices xs on every owner but the one holding each — xs[x]
// is from shard shards[x], or from no owner when shards is nil — with
// one Owned.RankBatch per owner of the answers it does not hold.
func (l *Loopback) rankOthers(ctx context.Context, xs []order.Answer, shards []int, ranks []int64) ([]bool, error) {
	exact := make([]bool, len(xs))
	for i, o := range l.owned {
		var at []int
		var mine []order.Answer
		for x := range xs {
			if shards == nil || l.owner[shards[x]] != i {
				at, mine = append(at, x), append(mine, xs[x])
			}
		}
		if len(at) == 0 {
			continue
		}
		if err := l.call(ctx, &l.RankCalls, len(at)); err != nil {
			return nil, err
		}
		got, ex, err := o.RankBatch(mine, o.Shards())
		if err != nil {
			return nil, err
		}
		l.place(ranks, o, at, got)
		for x, a := range at {
			exact[a] = exact[a] || ex[x]
		}
	}
	return exact, nil
}

// place writes rows of ranks on o's shards, row x for request answer
// at[x], into ranks (nil: nothing to price).
func (l *Loopback) place(ranks []int64, o *shard.Owned, at []int, rows []int64) {
	own := o.Shards()
	for x := 0; ranks != nil && x < len(at); x++ {
		for c, s := range own {
			ranks[at[x]*len(l.owner)+s] = rows[x*len(own)+c]
		}
	}
}

// loopPart is one shard's range window.
type loopPart struct {
	l *Loopback
	s int
}

func (p loopPart) Total() int64 {
	n, _ := p.l.owned[p.l.owner[p.s]].Total(p.s) // the owner owns p.s by construction
	return n
}

func (p loopPart) FetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error) {
	if err := p.l.call(ctx, &p.l.RangeCalls, 0); err != nil {
		return nil, err
	}
	if p.l.OnRange != nil {
		p.l.OnRange(p.s, k0, k1)
	}
	rows, err := p.l.owned[p.l.owner[p.s]].Range(p.s, k0, k1)
	p.l.RangeRows.Add(int64(len(rows)))
	return rows, err
}
