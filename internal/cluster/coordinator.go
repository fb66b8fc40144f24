package cluster

import (
	"context"
	"fmt"
	"sync"
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
// (the clusterRanker): one AccessBatch to that node, which fetches the
// pivots and prices them on its own shards, then one RankBatch to every
// other node, nodes in parallel — with two nodes, two RPCs per round.
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
	rankRounds atomic.Uint64
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
	err = scatter(len(peers), func(i int) (err error) {
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
		if !sameEntries(infos[i].Completed, infos[0].Completed) {
			return nil, fmt.Errorf("cluster: node %s realized order %v, node %s realized %v",
				peers[i].Addr, infos[i].Completed, peers[0].Addr, infos[0].Completed)
		}
	}

	// One remote part per global shard, probing its owner with the
	// exact spec (including Owned) the owner cached its build under.
	parts := make([]shard.RemotePart, dp.Part.P)
	ranker := &clusterRanker{peers: make([]rankPeer, len(peers)), owner: make([]int, dp.Part.P), tracer: c.tracer}
	for i, p := range peers {
		ranker.peers[i] = rankPeer{c: p.Client, spec: specs[i], version: infos[i].Version}
		// Part totals come from the Prepare responses: the only RPCs of
		// assembling the handle are its splitter fill's.
		for j, sIdx := range p.Shards {
			ranker.owner[sIdx] = i
			parts[sIdx] = &clusterPart{rankPeer: &ranker.peers[i], shard: sIdx, total: infos[i].Totals[j]}
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
	// node that fails that fails the Prepare (the ranker's errors
	// already say which). The fill's hundreds of rounds root a local
	// trace of their own under the request's, whose span buffer they
	// would overrun.
	fctx, span := c.tracer.Start(trace.Detach(ctx), "cluster.splitter_fill", trace.KindInternal)
	start := time.Now()
	sh, err := shard.NewRemote(fctx, dp.Query, dp.Part, parts, kind.Comparator(dp.Query, completed), ranker, completed)
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
	ranker.searches = &c.rankRounds // from here on a Price that prices is a search round
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
	err = scatter(len(peers), func(i int) (err error) {
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

// scatter runs fn(0) … fn(n-1) in parallel and returns the first
// failure in index order. The last call runs on the caller's goroutine:
// a scatter to one node spawns nothing, one to two nodes spawns one.
func scatter(n int, fn func(i int) error) error {
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

// rankPeer is one node as a probe target: its client, and the exact
// spec (including Owned) and version the node cached its build under.
type rankPeer struct {
	c       *rpc.Client
	spec    rpc.Spec
	version uint64
}

// clusterPart is one global shard's range window, served by its owner.
type clusterPart struct {
	*rankPeer
	shard int
	total int64
}

var _ shard.RemotePart = (*clusterPart)(nil)

func (p *clusterPart) Total() int64 { return p.total }

func (p *clusterPart) FetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error) {
	return p.c.Range(ctx, p.spec, p.version, p.shard, k0, k1)
}

// clusterRanker is the batched probe surface of the cluster: every hop
// is ONE scatter — one RPC per node involved, nodes in parallel, each
// serving all its owned shards locally — so a rank round costs two
// sequential hops whatever P and the pivot count are.
type clusterRanker struct {
	peers  []rankPeer
	owner  []int // global shard → index of its owner in peers
	tracer *trace.Tracer
	rounds atomic.Uint64 // numbers the rounds for trace spans
	// searches counts the search rounds of the coordinator's
	// ra_cluster_rank_rounds_total; nil while the splitter fill runs.
	searches *atomic.Uint64
}

var _ shard.BatchRanker = (*clusterRanker)(nil)

func (r *clusterRanker) Owners() []int { return r.owner }

// ownerBatch is one node's share of a batched access.
type ownerBatch struct {
	node   int   // index into peers
	at     []int // indices into the request
	shards []int
	pos    []int64
}

// split divides a batched access by owner, keeping request order within
// a node. One counting pass sizes every slice, so a split allocates five
// times whatever the request's length and the number of nodes — the
// count table, the batches, and one backing array per field — where
// appending from nil regrew three slices per node per round.
func (r *clusterRanker) split(shards []int, pos []int64) ([]ownerBatch, error) {
	counts := make([]int, len(r.peers))
	owners := 0
	for _, s := range shards {
		if s < 0 || s >= len(r.owner) {
			return nil, fmt.Errorf("cluster: access of shard %d outside [0, %d)", s, len(r.owner))
		}
		if counts[r.owner[s]]++; counts[r.owner[s]] == 1 {
			owners++
		}
	}
	batches := make([]ownerBatch, 0, owners)
	at, sh, ps := make([]int, len(shards)), make([]int, len(shards)), make([]int64, len(shards))
	off := 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		counts[i] = len(batches) // from here on: the node's batch
		end := off + n
		batches = append(batches, ownerBatch{node: i, at: at[off:off:end], shards: sh[off:off:end], pos: ps[off:off:end]})
		off = end
	}
	for i, s := range shards {
		b := &batches[counts[r.owner[s]]]
		b.at, b.shards, b.pos = append(b.at, i), append(b.shards, s), append(b.pos, pos[i])
	}
	return batches, nil
}

// round is the per-peer contexts one Price or RankAll calls under.
type round struct {
	ctxs  []context.Context
	spans []*trace.Span
}

// newRound opens a round's cluster.rank_round spans — the unit of
// scatter-gather attribution (which peer, which round ate the budget):
// one per peer, because a round that prices reaches every peer, by
// fetch or by rank. A span lasts the round; the peer's calls in it are
// its rarc.client children. A plain fetch (priced false) opens none.
func (r *clusterRanker) newRound(ctx context.Context, pivots int, priced bool) round {
	rd := round{ctxs: make([]context.Context, len(r.peers)), spans: make([]*trace.Span, len(r.peers))}
	t, seq := r.tracer, int64(0)
	if priced {
		seq = int64(r.rounds.Add(1))
	} else {
		t = nil
	}
	for i := range r.peers {
		pr := &r.peers[i]
		rd.ctxs[i], rd.spans[i] = t.Start(ctx, "cluster.rank_round", trace.KindInternal)
		rd.spans[i].SetAttr(trace.Str("peer", pr.c.Addr()), trace.Int("round_seq", seq),
			trace.Int("owned_shards", int64(len(pr.spec.Owned))), trace.Int("pivots", int64(pivots)))
	}
	return rd
}

// fail records a peer's failed call of the round and names the peer.
func (rd round) fail(r *clusterRanker, i int, method string, err error) error {
	rd.spans[i].SetError(err)
	return fmt.Errorf("cluster: %s on %s: %w", method, r.peers[i].c.Addr(), err)
}

func (rd round) end() {
	for _, s := range rd.spans {
		s.End()
	}
}

// place writes request answer a's ranks on a peer's owned shards, row[j]
// being owned[j]'s, into its row of ranks (nil: nothing to price).
func (r *clusterRanker) place(ranks []int64, a int, owned []int, row []int64) {
	for j := 0; ranks != nil && j < len(owned); j++ {
		ranks[a*len(r.owner)+owned[j]] = row[j]
	}
}

// Price fetches the positions with one AccessBatch per owning node —
// which prices its answers on its own shards in the same call — and,
// when ranks is set, prices them on the other shards (see rankOthers).
// A search round's pivots come from one node, so a round is one access
// plus one rank RPC per other node; the final fetch (ranks nil) is the
// access alone.
func (r *clusterRanker) Price(ctx context.Context, shards []int, pos []int64, ranks []int64) ([]order.Answer, error) {
	batches, err := r.split(shards, pos)
	if err != nil {
		return nil, err
	}
	rd := r.newRound(ctx, len(pos), ranks != nil)
	defer rd.end()
	if ranks != nil && r.searches != nil {
		r.searches.Add(1)
	}
	out := make([]order.Answer, len(pos))
	err = scatter(len(batches), func(i int) error {
		b := &batches[i]
		pr := &r.peers[b.node]
		got, rk, err := pr.c.AccessBatch(rd.ctxs[b.node], pr.spec, pr.version, b.shards, b.pos)
		if err != nil {
			return rd.fail(r, b.node, "access", err)
		}
		for j, a := range b.at {
			out[a] = got[j]
			r.place(ranks, a, pr.spec.Owned, rk[j*len(pr.spec.Owned):])
		}
		return nil
	})
	if err != nil || ranks == nil {
		return out, err
	}
	_, err = r.rankOthers(rd, out, shards, ranks)
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
func (r *clusterRanker) rankOthers(rd round, xs []order.Answer, shards []int, ranks []int64) ([]bool, error) {
	jobs := make([]rankJob, 0, len(r.peers))
	for i := range r.peers {
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
	err := scatter(len(jobs), func(k int) (err error) {
		jb := &jobs[k]
		pr := &r.peers[jb.node]
		var got []int64
		if got, jb.ex, err = pr.c.RankBatch(rd.ctxs[jb.node], pr.spec, pr.version, jb.xs); err != nil {
			return rd.fail(r, jb.node, "rank", err)
		}
		for x, a := range jb.at {
			r.place(ranks, a, pr.spec.Owned, got[x*len(pr.spec.Owned):])
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

func (r *clusterRanker) RankAll(ctx context.Context, answers []order.Answer, ranks []int64) ([]bool, error) {
	if len(ranks) != len(answers)*len(r.owner) {
		return nil, fmt.Errorf("cluster: %d rank slots for %d answers on %d shards", len(ranks), len(answers), len(r.owner))
	}
	rd := r.newRound(ctx, len(answers), true)
	defer rd.end()
	return r.rankOthers(rd, answers, nil, ranks)
}
