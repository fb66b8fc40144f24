package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/trace"
)

// Coordinator implements engine.RemoteBuilder over a cluster: it plans
// each spec locally (the paper's dichotomies are data-free), scatters
// Prepare to every node owning shards, verifies the nodes agree on the
// structure mode and realized order, and assembles a shard.Handle whose
// parts probe the nodes over RPC. The handle's rank-merge is the exact
// machinery the in-process sharded path uses, so distributed answers
// are byte-identical to single-node answers by construction.
//
// A global Access(k) costs O(log n) scatter ROUNDS: each binary-search
// iteration prices one candidate answer on every shard via one
// parallel batched-rank RPC per node (the clusterRanker), plus the one
// access that fetched the candidate. See the distributed oracle test
// for the empirical pin.
type Coordinator struct {
	table  *Table
	prober *Prober
	tracer *trace.Tracer
}

// NewCoordinator builds a coordinator over the cluster layout and
// starts its health prober.
func NewCoordinator(cfg *Config, opts rpc.Options) *Coordinator {
	t := NewTable(cfg, opts)
	return &Coordinator{table: t, prober: t.StartProber()}
}

var _ engine.RemoteBuilder = (*Coordinator)(nil)

// Table exposes the routing table (for readiness and metrics).
func (c *Coordinator) Table() *Table { return c.table }

// SetTracer makes scatter-gather emit one span per peer per rank
// round (and attaches the tracer to every peer RPC client so outbound
// calls propagate trace context on the wire). Call before BuildRemote.
func (c *Coordinator) SetTracer(t *trace.Tracer) {
	c.tracer = t
	for _, p := range c.table.Peers {
		p.Client.SetTracer(t)
	}
}

// ReadyReasons reports why the coordinator is not ready (one reason
// per unreachable node); empty means ready.
func (c *Coordinator) ReadyReasons() []string { return c.table.ReadyReasons() }

// Close stops the prober and closes every peer client.
func (c *Coordinator) Close() {
	c.prober.Close()
	c.table.Close()
}

// RegisterMetrics attaches per-peer RPC client metrics and peer-up
// gauges to the registry.
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) {
	for _, p := range c.table.Peers {
		p.Client.SetMetrics(rpc.NewClientMetrics(reg, p.Addr))
		peer := p
		reg.GaugeFunc("ra_cluster_peer_up", "Shard node health as probed by the coordinator (1 = up).",
			func() float64 {
				if peer.Up() {
					return 1
				}
				return 0
			}, "peer", peer.Addr)
	}
}

// planSpec plans a spec locally, fixing the partitioning every node
// must agree on. Unshardable queries (boolean, self-joins) cannot run
// on a cluster at all — there is no local fallback, unlike the
// single-node sharded path.
func (c *Coordinator) planSpec(s engine.Spec) (*engine.DistPlan, error) {
	dp, err := engine.PlanDistributed(s, c.table.Config.Shards, s.ShardBy)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return dp, nil
}

// activePeers returns the peers owning at least one shard (a node that
// wins no shards under rendezvous placement is never contacted).
func (c *Coordinator) activePeers() []*Peer {
	var out []*Peer
	for _, p := range c.table.Peers {
		if len(p.Shards) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// BuildRemote scatters Prepare to every shard-owning node and wires
// the responses into a handle over remote parts.
func (c *Coordinator) BuildRemote(ctx context.Context, s engine.Spec) (*engine.RemoteHandle, error) {
	dp, err := c.planSpec(s)
	if err != nil {
		return nil, err
	}
	peers := c.activePeers()

	// Scatter Prepare: every node builds its owned shards in parallel.
	infos := make([]*rpc.PrepareInfo, len(peers))
	specs := make([]rpc.Spec, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		sp := rpc.Spec{Query: s.Query, Order: s.Order, SumBy: s.SumBy, P: dp.Part.P, ShardVar: dp.Part.VarName, Owned: p.Shards}
		specs[i] = sp
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			infos[i], errs[i] = p.Client.Prepare(ctx, sp)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: prepare on %s: %w", peers[i].Addr, err)
		}
	}

	// Unanimity: all nodes must have chosen the same structure mode and
	// (for layered builds) realized the same total order — otherwise
	// merging their local ranks would silently interleave different
	// orders.
	mode := engine.Mode(infos[0].Mode)
	completed := order.Lex{Entries: infos[0].Completed}
	for i := 1; i < len(infos); i++ {
		if engine.Mode(infos[i].Mode) != mode {
			return nil, fmt.Errorf("cluster: node %s built mode %s, node %s built %s",
				peers[i].Addr, infos[i].Mode, peers[0].Addr, infos[0].Mode)
		}
		if !sameEntries(infos[i].Completed, infos[0].Completed) {
			return nil, fmt.Errorf("cluster: node %s realized order %v, node %s realized %v",
				peers[i].Addr, infos[i].Completed, peers[0].Addr, infos[0].Completed)
		}
	}

	// One remote part per global shard, probing its owner with the
	// exact spec (including Owned) the owner cached its build under.
	parts := make([]shard.RemotePart, dp.Part.P)
	rankPeers := make([]rankPeer, len(peers))
	for i, p := range peers {
		rankPeers[i] = rankPeer{c: p.Client, spec: specs[i], version: infos[i].Version, owned: p.Shards}
		for _, sIdx := range p.Shards {
			parts[sIdx] = &clusterPart{c: p.Client, spec: specs[i], version: infos[i].Version, shard: sIdx}
		}
	}
	// Seed part totals from the Prepare responses so constructing the
	// handle performs no extra RPCs.
	for i, p := range peers {
		for j, sIdx := range p.Shards {
			parts[sIdx].(*clusterPart).total = infos[i].Totals[j]
		}
	}

	// Merge by the comparator of the structure kind the nodes agreed
	// on — the same one the in-process sharded path installs, which is
	// what makes distributed answers byte-identical.
	kind, err := dp.Kind(mode)
	if err != nil {
		return nil, fmt.Errorf("cluster: nodes disagree with the plan: %w", err)
	}
	ranker := &clusterRanker{peers: rankPeers, p: dp.Part.P, tracer: c.tracer}
	return &engine.RemoteHandle{
		Query: dp.Query,
		Plan: engine.Plan{
			Mode:      mode,
			Tractable: !kind.Materialized,
			Verdict:   dp.Verdict(),
			Shards:    dp.Part.P,
			ShardBy:   dp.Part.VarName,
		},
		Sh:       shard.NewRemote(dp.Query, dp.Part, parts, kind.Comparator(dp.Query, completed), ranker, completed),
		NoInvert: kind.IsSum,
	}, nil
}

func sameEntries(a, b []order.LexEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CountRemote scatters the count to every shard-owning node and sums
// (shard answer sets partition Q(I)).
func (c *Coordinator) CountRemote(ctx context.Context, query, by string) (int64, engine.CountInfo, error) {
	var info engine.CountInfo
	dp, err := c.planSpec(engine.Spec{Query: query, ShardBy: by})
	if err != nil {
		return 0, info, err
	}
	info.Shards, info.ShardBy = dp.Part.P, dp.Part.VarName
	peers := c.activePeers()
	counts := make([]int64, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			counts[i], errs[i] = p.Client.Count(ctx, rpc.CountSpec{
				Query: query, P: dp.Part.P, ShardVar: dp.Part.VarName, Owned: p.Shards,
			})
		}(i, p)
	}
	wg.Wait()
	var total int64
	for i := range peers {
		if errs[i] != nil {
			return 0, info, fmt.Errorf("cluster: count on %s: %w", peers[i].Addr, errs[i])
		}
		total += counts[i]
	}
	return total, info, nil
}

// clusterPart is one global shard probed over RPC at its owner.
type clusterPart struct {
	c       *rpc.Client
	spec    rpc.Spec
	version uint64
	shard   int
	total   int64
}

var _ shard.RemotePart = (*clusterPart)(nil)

func (p *clusterPart) Total() int64 { return p.total }

func (p *clusterPart) Rank(ctx context.Context, a order.Answer) (int64, bool, error) {
	// Single-shard rank: reuse the batched call with this part's owner;
	// it ranks all the node's shards, we pick ours. This path only runs
	// when no BatchRanker is installed (not the cluster default).
	ranks, exact, err := p.c.Rank(ctx, p.spec, p.version, a)
	if err != nil {
		return 0, false, err
	}
	for i, s := range p.spec.Owned {
		if s == p.shard {
			return ranks[i], exact, nil
		}
	}
	return 0, false, fmt.Errorf("cluster: shard %d missing from rank response", p.shard)
}

func (p *clusterPart) Access(ctx context.Context, k int64) (order.Answer, error) {
	return p.c.Access(ctx, p.spec, p.version, p.shard, k)
}

func (p *clusterPart) FetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error) {
	return p.c.Range(ctx, p.spec, p.version, p.shard, k0, k1)
}

// rankPeer is one node's batched-rank target.
type rankPeer struct {
	c       *rpc.Client
	spec    rpc.Spec
	version uint64
	owned   []int
}

// clusterRanker prices an answer on all P shards in ONE scatter round:
// one parallel RPC per node, each ranking all its owned shards
// locally. This is what keeps a global Access(k) at O(log n) rounds
// instead of O(P log n) sequential calls.
type clusterRanker struct {
	peers  []rankPeer
	p      int
	tracer *trace.Tracer
	rounds atomic.Uint64
}

var _ shard.BatchRanker = (*clusterRanker)(nil)

func (r *clusterRanker) RankAll(ctx context.Context, a order.Answer, ranks []int64) (bool, error) {
	if len(ranks) != r.p {
		return false, fmt.Errorf("cluster: %d rank slots for %d shards", len(ranks), r.p)
	}
	// One rank round = one RankAll = one locate iteration; number them
	// so a trace waterfall shows the binary search converging.
	round := int64(r.rounds.Add(1))
	exacts := make([]bool, len(r.peers))
	errs := make([]error, len(r.peers))
	var wg sync.WaitGroup
	for i := range r.peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr := &r.peers[i]
			// The per-peer rank-round span: the unit of scatter-gather
			// attribution (which peer, which round ate the budget).
			sctx, span := r.tracer.Start(ctx, "cluster.rank_round", trace.KindInternal)
			span.SetAttr(
				trace.Str("peer", pr.c.Addr()),
				trace.Int("round_seq", round),
				trace.Int("owned_shards", int64(len(pr.owned))),
			)
			got, ex, err := pr.c.Rank(sctx, pr.spec, pr.version, a)
			if err != nil {
				span.SetError(err)
				span.End()
				errs[i] = err
				return
			}
			span.End()
			for j, s := range pr.owned {
				ranks[s] = got[j]
			}
			exacts[i] = ex
		}(i)
	}
	wg.Wait()
	exact := false
	for i := range r.peers {
		if errs[i] != nil {
			return false, fmt.Errorf("cluster: rank on %s: %w", r.peers[i].c.Addr(), errs[i])
		}
		exact = exact || exacts[i]
	}
	return exact, nil
}
