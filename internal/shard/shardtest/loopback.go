// Package shardtest serves owned shard builds as the remote surface of
// a shard.Handle without a network, for tests: the batched calls reach
// Owned.AccessBatch and Owned.RankBatch grouped by owner exactly as a
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

	// AccessCalls, RankCalls and RangeCalls count scatters (one per
	// AccessAll / RankAll) and range fetches; Pivots sums the positions
	// and answers they carried, MaxBatch is the largest single call.
	// They count probes: Handle moves what assembling the handle cost
	// — its splitter fill — into FillCalls and FillMaxBatch and hands
	// the handle out with the counters at zero.
	AccessCalls, RankCalls, RangeCalls atomic.Int64
	Pivots, MaxBatch                   atomic.Int64
	FillCalls, FillMaxBatch            int64

	// Delay is slept at the start of every call, standing in for the
	// round trip.
	Delay time.Duration
	// OnCall, when set, runs at the start of every call that is sent.
	OnCall func()
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
	return h, err
}

func (l *Loopback) call(ctx context.Context, calls *atomic.Int64, n int) error {
	calls.Add(1)
	l.Pivots.Add(int64(n))
	for {
		m := l.MaxBatch.Load()
		if int64(n) <= m || l.MaxBatch.CompareAndSwap(m, int64(n)) {
			break
		}
	}
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

// AccessAll implements shard.BatchRanker: one Owned.AccessBatch per
// owner holding a requested position.
func (l *Loopback) AccessAll(ctx context.Context, shards []int, pos []int64) ([]order.Answer, error) {
	if err := l.call(ctx, &l.AccessCalls, len(pos)); err != nil {
		return nil, err
	}
	out := make([]order.Answer, len(pos))
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
		got, err := o.AccessBatch(ss, ks)
		if err != nil {
			return nil, err
		}
		for j, a := range at {
			out[a] = got[j]
		}
	}
	return out, nil
}

// RankAll implements shard.BatchRanker: one Owned.RankBatch per owner.
func (l *Loopback) RankAll(ctx context.Context, answers []order.Answer, ranks []int64) ([]bool, error) {
	if err := l.call(ctx, &l.RankCalls, len(answers)); err != nil {
		return nil, err
	}
	p := len(l.owner)
	exact := make([]bool, len(answers))
	for _, o := range l.owned {
		shards := o.Shards()
		got, ex, err := o.RankBatch(answers, shards)
		if err != nil {
			return nil, err
		}
		for a := range answers {
			for j, s := range shards {
				ranks[a*p+s] = got[a*len(shards)+j]
			}
			exact[a] = exact[a] || ex[a]
		}
	}
	return exact, nil
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
	return p.l.owned[p.l.owner[p.s]].Range(p.s, k0, k1)
}
