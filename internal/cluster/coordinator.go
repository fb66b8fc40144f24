package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

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
// Preparing a spec also prices the handle's splitter table (shard's
// SplittersPerShard positions of every shard, S in all, S·(P+2) words
// on the coordinator, at most 4 MiB): rounds like the ones below over
// fixed positions, at most MaxPivots each, once per (spec, version), in
// one lane per node — each node's positions in its own sequence of
// rounds, the lanes in parallel; a fill that fails fails the Prepare.
// The cluster.splitter_fill span covers it, and
// ra_cluster_splitter_fill_seconds and ra_cluster_splitters report it.
//
// A global Access(k) then costs about log_{m·P+1}(n/(S+1)) ROUNDS (m =
// shard's PivotsPerWindow) — the table starts the search between the two
// splitters that bracket k. Each round of the handle's rank search
// spends m pivots per open shard window on the windows of ONE node, the
// one with the most open positions, and makes one call per node per hop
// (the handle's router in shard, over one peerNode per peer): one
// AccessBatch to that node, which fetches the pivots and prices them on
// its own shards, then one RankBatch to every other node, nodes in
// parallel — with two nodes, two RPCs per round.
// At most one single-position AccessBatch for the result follows, which
// a search the table settles outright still sends: the table holds
// ranks, never answers, so a node that died or moved past the prepared
// version still fails every access that needs it. A range runs the
// search for its first row without that fetch, then sends one parallel
// Range scatter to the shards the splitter table leaves open below the
// window's end, each sized by the shard's share of the answers up to
// that bound, and at most one refill per shard for all that is left of
// it. TestDistributedRPCBudget pins the arithmetic;
// ra_cluster_rank_rounds_total counts the rounds.
type Coordinator struct {
	table  *Table
	prober *Prober
	tracer *trace.Tracer
	// rankRounds counts the rank rounds of every handle's searches.
	rankRounds atomic.Int64
	// splitters is the newest handle's table size; fillSeconds, once
	// RegisterMetrics ran, times every fill that succeeds.
	splitters   atomic.Int64
	fillSeconds atomic.Pointer[metrics.Histogram]
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

// RegisterMetrics attaches per-peer RPC client metrics, peer-up gauges,
// the rank-round counter and the splitter fill's series to the
// registry.
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("ra_cluster_rank_rounds_total", "Rank rounds of the coordinator's searches (splitter fills excluded).",
		func() float64 { return float64(c.rankRounds.Load()) })
	reg.GaugeFunc("ra_cluster_splitters", "Splitters in the table of the newest remote handle.",
		func() float64 { return float64(c.splitters.Load()) })
	c.fillSeconds.Store(reg.Histogram("ra_cluster_splitter_fill_seconds", "Wall time of a remote handle's splitter fill.", nil))
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
	for i, p := range peers {
		specs[i] = rpc.Spec{Query: s.Query, Order: s.Order, SumBy: s.SumBy, P: dp.Part.P, ShardVar: dp.Part.VarName, Owned: p.Shards}
	}
	err = shard.Scatter(len(peers), func(i int) (err error) {
		if infos[i], err = peers[i].Client.Prepare(ctx, specs[i]); err != nil {
			return fmt.Errorf("cluster: prepare on %s: %w", peers[i].Addr, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
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
		if !slices.Equal(infos[i].Completed, infos[0].Completed) {
			return nil, fmt.Errorf("cluster: node %s realized order %v, node %s realized %v",
				peers[i].Addr, infos[i].Completed, peers[0].Addr, infos[0].Completed)
		}
	}

	// One node per peer, probed with the exact spec (including Owned)
	// it cached its build under. Shard totals come from the Prepare
	// responses: the only RPCs of assembling the handle are its
	// splitter fill's.
	nodes, owned, totals := make([]shard.Node, len(peers)), make([][]int, len(peers)), make([]int64, dp.Part.P)
	for i, p := range peers {
		nodes[i], owned[i] = &peerNode{c: p.Client, spec: specs[i], version: infos[i].Version, tracer: c.tracer}, p.Shards
		for j, s := range p.Shards {
			totals[s] = infos[i].Totals[j]
		}
	}

	// Merge by the comparator of the structure kind the nodes agreed
	// on — the same one the in-process sharded path installs, which is
	// what makes distributed answers byte-identical.
	kind, err := dp.Kind(mode)
	if err != nil {
		return nil, fmt.Errorf("cluster: nodes disagree with the plan: %w", err)
	}
	// Assembling the handle prices its splitter table on the nodes; a
	// node that fails that fails the Prepare (the peer nodes' errors
	// already say which). The fill's hundreds of rounds root a local
	// trace of their own under the request's, whose span buffer they
	// would overrun.
	fctx, span := c.tracer.Start(trace.Detach(ctx), "cluster.splitter_fill", trace.KindInternal)
	start := time.Now()
	sh, err := shard.NewRemote(fctx, dp.Query, dp.Part, kind.Comparator(dp.Query, completed), completed, nodes, owned, totals, &c.rankRounds)
	span.SetError(err)
	defer span.End()
	if err != nil {
		return nil, err
	}
	n, batches, lanes := sh.SplitterFill()
	span.SetAttr(trace.Int("splitters", int64(n)), trace.Int("batches", int64(batches)), trace.Int("lanes", int64(lanes)))
	c.splitters.Store(int64(n))
	if h := c.fillSeconds.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
	return &engine.RemoteHandle{
		Query: dp.Query,
		Plan: engine.Plan{
			Mode:      mode,
			Tractable: !kind.Materialized,
			Verdict:   dp.Verdict(),
			Shards:    dp.Part.P,
			ShardBy:   dp.Part.VarName,
		},
		Sh: sh,
	}, nil
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
	err = shard.Scatter(len(peers), func(i int) (err error) {
		counts[i], err = peers[i].Client.Count(ctx, rpc.CountSpec{
			Query: query, P: dp.Part.P, ShardVar: dp.Part.VarName, Owned: peers[i].Shards,
		})
		if err != nil {
			return fmt.Errorf("cluster: count on %s: %w", peers[i].Addr, err)
		}
		return nil
	})
	if err != nil {
		return 0, info, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, info, nil
}

// peerNode is one shard node as a shard.Node: its client, and the exact
// spec (including Owned) and version the node cached its build under.
// It names the peer in the errors of its probes, and gives its calls of
// a priced round a cluster.rank_round span — the unit of scatter-gather
// attribution (which peer, which round ate the budget): a round sends
// each node one call, so that is one span per peer per round, with the
// peer's rarc.client span under it. A plain fetch opens none.
type peerNode struct {
	c       *rpc.Client
	spec    rpc.Spec
	version uint64
	tracer  *trace.Tracer
}

func (n *peerNode) AccessBatch(ctx context.Context, shards []int, pos []int64) ([]order.Answer, []int64, error) {
	ctx, span := n.round(ctx)
	defer span.End()
	answers, ranks, err := n.c.AccessBatch(ctx, n.spec, n.version, shards, pos)
	return answers, ranks, n.fail(span, "access", err)
}

func (n *peerNode) RankBatch(ctx context.Context, answers []order.Answer) ([]int64, []bool, error) {
	ctx, span := n.round(ctx)
	defer span.End()
	ranks, exact, err := n.c.RankBatch(ctx, n.spec, n.version, answers)
	return ranks, exact, n.fail(span, "rank", err)
}

func (n *peerNode) Range(ctx context.Context, s int, k0, k1 int64) ([]order.Answer, error) {
	return n.c.Range(ctx, n.spec, n.version, s, k0, k1)
}

// round opens the call's cluster.rank_round span when it belongs to a
// priced round.
func (n *peerNode) round(ctx context.Context) (context.Context, *trace.Span) {
	rd, ok := shard.RoundOf(ctx)
	if !ok {
		return ctx, nil
	}
	ctx, span := n.tracer.Start(ctx, "cluster.rank_round", trace.KindInternal)
	span.SetAttr(trace.Str("peer", n.c.Addr()), trace.Int("round_seq", rd.Seq),
		trace.Int("owned_shards", int64(len(n.spec.Owned))), trace.Int("pivots", int64(rd.Pivots)))
	return ctx, span
}

// fail records a failed call on its span and names the peer.
func (n *peerNode) fail(span *trace.Span, method string, err error) error {
	if err == nil {
		return nil
	}
	span.SetError(err)
	return fmt.Errorf("cluster: %s on %s: %w", method, n.c.Addr(), err)
}
