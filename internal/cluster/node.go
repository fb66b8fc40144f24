package cluster

import (
	"context"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/trace"
)

// maxNodeBuilds bounds the node's build cache; above it, builds for
// stale versions are evicted first, then arbitrary entries.
const maxNodeBuilds = 64

// Node serves the shard-node side of the RPC protocol over a local
// engine: it builds and caches the owned slice of each distributed
// spec and answers stateless probes against it. Every probe carries
// the full spec, so a node that lost a build (restart, eviction)
// silently reconstructs it; probes also carry the instance version the
// coordinator prepared against, and a node whose data moved on answers
// rpc.ErrStaleVersion instead of mixing epochs.
type Node struct {
	e *engine.Engine

	mu     sync.Mutex
	builds map[string]*buildEntry

	tracer atomic.Pointer[trace.Tracer]
}

// buildEntry is one cached owned-shard build, single-flighted so
// concurrent probes for a missing spec build once. nb is written under
// n.mu, because the cache reads it under n.mu to spot stale builds
// while the first prober may still be building in once.Do.
type buildEntry struct {
	once sync.Once
	nb   *engine.NodeBuild
	err  error
}

// NewNode wraps an engine as an RPC backend.
func NewNode(e *engine.Engine) *Node {
	return &Node{e: e, builds: make(map[string]*buildEntry)}
}

// SetTracer makes probes emit per-shard engine spans under the RPC
// server span carried in their contexts. nil disables.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// span starts a node-level engine span when a tracer is attached.
func (n *Node) span(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, *trace.Span) {
	t := n.tracer.Load()
	if t == nil {
		return ctx, nil
	}
	sctx, sp := t.Start(ctx, name, trace.KindInternal)
	sp.SetAttr(attrs...)
	return sctx, sp
}

var _ rpc.Backend = (*Node)(nil)

// plan plans a probe's spec (engine.PlanDistributed) and checks what
// only the wire can get wrong — the partition variable is always
// explicit there (the coordinator resolves defaulting before fan-out so
// all nodes agree), and a node is never asked for no shards. All of it
// is the caller's fault, so it surfaces as bad-request, not internal.
func plan(es engine.Spec, p int, shardVar string, owned []int) (*engine.DistPlan, error) {
	if shardVar == "" {
		return nil, &rpc.BadRequestError{Msg: "distributed build requires an explicit partition variable"}
	}
	if len(owned) == 0 {
		return nil, &rpc.BadRequestError{Msg: "no owned shards requested"}
	}
	dp, err := engine.PlanDistributed(es, p, shardVar)
	if err != nil {
		return nil, &rpc.BadRequestError{Msg: err.Error()}
	}
	return dp, nil
}

// getBuild returns the cached build for the spec, building it if the
// node has never seen it (or evicted it) — the stateless-probe
// guarantee. A cached build for an older instance version is replaced.
func (n *Node) getBuild(ctx context.Context, spec rpc.Spec) (*engine.NodeBuild, error) {
	es := engine.Spec{Query: spec.Query, Order: spec.Order, SumBy: spec.SumBy, FDs: spec.FDs}
	key := spec.Key()
	cur := n.e.Version()

	n.mu.Lock()
	ent, ok := n.builds[key]
	if ok && ent.nb != nil && ent.nb.Version != cur {
		ok = false // stale build: rebuild against the current epoch
	}
	if !ok {
		ent = &buildEntry{}
		n.builds[key] = ent
		n.evictLocked(key, cur)
	}
	n.mu.Unlock()

	ent.once.Do(func() {
		dp, err := plan(es, spec.P, spec.ShardVar, spec.Owned)
		if err != nil {
			ent.err = err
			return
		}
		nb, err := n.e.BuildOwned(ctx, dp, spec.Owned)
		n.mu.Lock()
		ent.nb, ent.err = nb, err
		n.mu.Unlock()
	})
	if ent.err != nil {
		// Failed entries are not cached: the next probe retries.
		n.mu.Lock()
		if n.builds[key] == ent {
			delete(n.builds, key)
		}
		n.mu.Unlock()
		return nil, ent.err
	}
	return ent.nb, nil
}

// evictLocked keeps the build cache bounded. Called with n.mu held,
// keep names the entry that must survive.
func (n *Node) evictLocked(keep string, cur uint64) {
	if len(n.builds) <= maxNodeBuilds {
		return
	}
	for k, ent := range n.builds {
		if k != keep && ent.nb != nil && ent.nb.Version != cur {
			delete(n.builds, k)
			if len(n.builds) <= maxNodeBuilds {
				return
			}
		}
	}
	for k := range n.builds {
		if k != keep {
			delete(n.builds, k)
			if len(n.builds) <= maxNodeBuilds {
				return
			}
		}
	}
}

// getVersioned is getBuild plus the version check every probe makes.
func (n *Node) getVersioned(ctx context.Context, spec rpc.Spec, version uint64) (*engine.NodeBuild, error) {
	nb, err := n.getBuild(ctx, spec)
	if err != nil {
		return nil, err
	}
	if nb.Version != version {
		return nil, rpc.ErrStaleVersion
	}
	return nb, nil
}

// Prepare builds (or reuses) the owned shards and reports the build's
// identity, per-shard totals and, where the build leads with the
// partition variable, per-shard groups (see shard.Owned.Groups): what
// the coordinator reads its splitter table from. The groups are the
// builds' own root layers, encoded straight off them.
func (n *Node) Prepare(ctx context.Context, spec rpc.Spec) (*rpc.PrepareInfo, error) {
	nb, err := n.getBuild(ctx, spec)
	if err != nil {
		return nil, err
	}
	info := &rpc.PrepareInfo{
		Version:   nb.Version,
		Mode:      string(nb.Mode),
		Completed: nb.Owned.Completed().Entries,
		Totals:    make([]int64, len(spec.Owned)),
	}
	for i, s := range spec.Owned {
		t, err := nb.Owned.Total(s)
		if err != nil {
			return nil, err
		}
		info.Totals[i] = t
	}
	if groups := nb.Owned.Groups(spec.Owned); groups != nil {
		info.Groups = make([]rpc.Groups, len(groups))
		for i, g := range groups {
			info.Groups[i] = rpc.Groups(g)
		}
	}
	return info, nil
}

// Count counts the owned shards' answers at the node's current
// version (counts are scatter-time consistent per node, not globally
// transactional — the cluster has no cross-node snapshot).
func (n *Node) Count(ctx context.Context, spec rpc.CountSpec) (int64, error) {
	dp, err := plan(engine.Spec{Query: spec.Query}, spec.P, spec.ShardVar, spec.Owned)
	if err != nil {
		return 0, err
	}
	return n.e.CountOwned(dp, spec.Owned)
}

// RankBatch prices every answer on every owned shard — the node-local
// half of one coordinator rank round.
func (n *Node) RankBatch(ctx context.Context, spec rpc.Spec, version uint64, answers []order.Answer) ([]int64, []bool, error) {
	ctx, sp := n.span(ctx, "node.rank", trace.Int("owned_shards", int64(len(spec.Owned))), trace.Int("pivots", int64(len(answers))))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, nil, err
	}
	ranks, exact, err := nb.Owned.RankBatch(answers, spec.Owned)
	if err != nil {
		sp.SetError(err)
	}
	return ranks, exact, err
}

// AccessBatch returns the local answers at (shards[i], pos[i]), priced
// on every owned shard when asked — the pivots one coordinator rank
// round takes from this node, with this node's half of their ranks —
// and fetched alone when not: a search's final fetch.
func (n *Node) AccessBatch(ctx context.Context, spec rpc.Spec, version uint64, shards []int, pos []int64, priced bool) ([]order.Answer, []int64, error) {
	ctx, sp := n.span(ctx, "node.access", trace.Int("pivots", int64(len(pos))))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, nil, err
	}
	owned := spec.Owned
	if !priced {
		owned = nil
	}
	out, ranks, err := nb.Owned.AccessBatch(shards, pos, owned)
	if err != nil {
		sp.SetError(err)
	}
	return out, ranks, err
}

// Range returns one owned shard's local answers k0 ≤ k < k1 as the
// rows Owned.Range writes, every variable of the query in each.
func (n *Node) Range(ctx context.Context, spec rpc.Spec, version uint64, s int, k0, k1 int64) ([]int64, int, error) {
	ctx, sp := n.span(ctx, "node.range", trace.Int("shard", int64(s)), trace.Int("k0", k0), trace.Int("k1", k1))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, 0, err
	}
	rows, err := nb.Owned.Range(s, k0, k1, nil)
	if err != nil {
		sp.SetError(err)
	}
	return rows, nb.Owned.Query.NumVars(), err
}

// Stats reports the node's identity counters.
func (n *Node) Stats(ctx context.Context) (*rpc.PeerStats, error) {
	st := n.e.Stats()
	n.mu.Lock()
	builds := len(n.builds)
	n.mu.Unlock()
	return &rpc.PeerStats{Version: st.Version, Tuples: int64(st.Tuples), Builds: int64(builds)}, nil
}

// Health reports the node's readiness. A node that can answer the RPC
// is serving; engine-level degradation (a broken WAL, a rebuild
// backlog) is reported in engine.Health.Reasons' words without
// flipping readiness — degraded reads beat no reads.
func (n *Node) Health(ctx context.Context) (*rpc.HealthInfo, error) {
	return &rpc.HealthInfo{Ready: true, Reasons: n.e.Health().Reasons()}, nil
}
