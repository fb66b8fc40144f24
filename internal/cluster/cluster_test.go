package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cluster"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/workload"
)

const twoPath = "Q(x, y, z) :- R(x, y), S(y, z)"

// testInstance returns THE test instance: every call produces
// identical data, which is how every node of a test cluster ends up
// holding the full dataset (the deployment model: load the same data
// to every node; ownership decides which shards each one builds).
func testInstance() *database.Instance {
	_, in := workload.TwoPath(rand.New(rand.NewSource(33)), 200, 32, 0.4)
	return in
}

// bigInstance is a second such instance, ≈ 150 000 two-path answers,
// whose splitter tables hold thousands of splitters.
func bigInstance() *database.Instance {
	_, in := workload.TwoPath(rand.New(rand.NewSource(34)), 3000, 256, 0.4)
	return in
}

// deepInstance is a third, ≈ 630 000 two-path answers: its splitter
// tables hold ≈ 20 000 splitters, a search behind the table may still
// run a round, and gathering the answers costs hundreds of times a
// search's budget.
func deepInstance() *database.Instance {
	_, in := workload.TwoPath(rand.New(rand.NewSource(34)), 12000, 256, 0.4)
	return in
}

// fillInstance is a fourth, ≈ 1.3·10⁶ two-path answers: its splitter
// fill takes more spans than one trace buffer holds.
func fillInstance() *database.Instance {
	_, in := workload.TwoPath(rand.New(rand.NewSource(34)), 24000, 256, 0.4)
	return in
}

// testCluster is one in-process cluster: real TCP listeners, real RPC
// servers, a real prober — only the machines are missing.
type testCluster struct {
	coord   *cluster.Coordinator
	ce      *engine.Engine // coordinator-mode engine
	engines []*engine.Engine
	nodes   []*cluster.Node
	servers []*rpc.Server
	addrs   []string
	// maxBatch is the largest pivot list any node was sent in one
	// batched call.
	maxBatch atomic.Int64
	// onRank, when set, runs as a node receives a batched rank call.
	onRank atomic.Pointer[func()]
}

// calls returns, per peer, the RPCs of any kind sent so far, less the
// prober's health checks.
func (tc *testCluster) calls() []uint64 {
	var out []uint64
	for _, peer := range tc.coord.Table().Peers {
		st := peer.Client.Stats()
		var n uint64
		for _, c := range st.Calls {
			n += c
		}
		out = append(out, n-st.Calls[rpc.KindHealth])
	}
	return out
}

// splitterRank returns the global rank of a splitter whose owner is
// the given node: the coordinator's table settles its search, which
// costs the cluster ONE RPC — the fetch from that node.
func (tc *testCluster) splitterRank(t *testing.T, spec engine.Spec, node int) int64 {
	t.Helper()
	rh, err := tc.coord.BuildRemote(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rh.Sh.Splitters() {
		before := tc.calls()
		if _, err := rh.Sh.Access(k); err != nil {
			t.Fatalf("Access(splitter rank %d): %v", k, err)
		}
		after, all := tc.calls(), uint64(0)
		for i := range after {
			all += after[i] - before[i]
		}
		if all != 1 {
			t.Fatalf("Access(splitter rank %d) cost %d RPCs, want the one fetch from its owner", k, all)
		}
		if after[node] == before[node]+1 {
			return k
		}
	}
	t.Fatalf("none of %d splitters is owned by node %d", len(rh.Sh.Splitters()), node)
	return 0
}

// batchMeter is a node backend that records the size of every batched
// request on its way in.
type batchMeter struct {
	rpc.Backend
	max    *atomic.Int64
	onRank *atomic.Pointer[func()]
}

func (b batchMeter) note(n int) {
	for {
		m := b.max.Load()
		if int64(n) <= m || b.max.CompareAndSwap(m, int64(n)) {
			return
		}
	}
}

func (b batchMeter) AccessBatch(ctx context.Context, spec rpc.Spec, version uint64, shards []int, pos []int64) ([]order.Answer, []int64, error) {
	b.note(len(pos))
	return b.Backend.AccessBatch(ctx, spec, version, shards, pos)
}

func (b batchMeter) RankBatch(ctx context.Context, spec rpc.Spec, version uint64, answers []order.Answer) ([]int64, []bool, error) {
	b.note(len(answers))
	if f := b.onRank.Load(); f != nil {
		(*f)()
	}
	return b.Backend.RankBatch(ctx, spec, version, answers)
}

// meteredListener counts every byte its connections carry, both ways.
type meteredListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return meteredConn{Conn: c, bytes: l.bytes}, nil
}

type meteredConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// startCluster boots nNodes shard nodes with explicit round-robin
// placement of p shards, plus a coordinator engine over them. wrap, if
// non-nil, wraps each node's listener (fault injection).
func startCluster(t *testing.T, nNodes, p int, wrap func(net.Listener) net.Listener) *testCluster {
	t.Helper()
	return startClusterOn(t, testInstance, nNodes, p, wrap)
}

// startClusterOn is startCluster over another instance; every call of
// inst must produce identical data.
func startClusterOn(t *testing.T, inst func() *database.Instance, nNodes, p int, wrap func(net.Listener) net.Listener) *testCluster {
	t.Helper()
	tc := &testCluster{}
	nodes := make([]cluster.NodeConfig, nNodes)
	for i := 0; i < nNodes; i++ {
		e := engine.New(inst(), engine.Options{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			lis = wrap(lis)
		}
		node := cluster.NewNode(e)
		srv := rpc.NewServer(batchMeter{Backend: node, max: &tc.maxBatch, onRank: &tc.onRank})
		go func() { _ = srv.Serve(lis) }()
		t.Cleanup(func() { _ = srv.Close() })
		tc.engines = append(tc.engines, e)
		tc.nodes = append(tc.nodes, node)
		tc.servers = append(tc.servers, srv)
		tc.addrs = append(tc.addrs, lis.Addr().String())
		nodes[i] = cluster.NodeConfig{Addr: tc.addrs[i]}
	}
	for s := 0; s < p; s++ {
		nodes[s%nNodes].Shards = append(nodes[s%nNodes].Shards, s)
	}
	raw, err := json.Marshal(cluster.Config{Shards: p, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.Parse(raw)
	if err != nil {
		t.Fatalf("Parse(%s): %v", raw, err)
	}
	tc.coord = cluster.NewCoordinator(cfg, rpc.Options{})
	t.Cleanup(tc.coord.Close)
	tc.ce = engine.New(nil, engine.Options{Remote: tc.coord})
	return tc
}

func oracleSpecs() []engine.Spec {
	return []engine.Spec{
		{Query: twoPath, Order: "x, y, z"},                       // layered-lex
		{Query: twoPath, Order: "y desc, x"},                     // layered-lex, mixed dirs
		{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}}, // sum
		{Query: twoPath, Order: "x, z, y"},                       // intractable → materialized
	}
}

// sampleKs picks boundary and interior ranks, deterministically.
func sampleKs(total int64) []int64 {
	ks := []int64{0, total - 1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 48; i++ {
		ks = append(ks, rng.Int63n(total))
	}
	return ks
}

// TestDistributedOracle is the byte-identity oracle: a coordinator
// over {2, 4} nodes must answer every probe exactly as a single-node
// engine over the same data — same tuples, same answers, same inverses,
// same counts, same errors.
func TestDistributedOracle(t *testing.T) {
	local := engine.New(testInstance(), engine.Options{})
	for _, topo := range []struct{ nodes, p int }{{2, 5}, {4, 8}} {
		tc := startCluster(t, topo.nodes, topo.p, nil)
		for _, spec := range oracleSpecs() {
			ref, err := local.Prepare(spec)
			if err != nil {
				t.Fatalf("%+v: local prepare: %v", spec, err)
			}
			h, err := tc.ce.Prepare(spec)
			if err != nil {
				t.Fatalf("%+v: distributed prepare: %v", spec, err)
			}
			if h.Total() != ref.Total() {
				t.Fatalf("%+v: distributed total %d, local %d", spec, h.Total(), ref.Total())
			}
			if h.Plan.Mode != ref.Plan.Mode {
				t.Fatalf("%+v: distributed mode %s, local %s", spec, h.Plan.Mode, ref.Plan.Mode)
			}
			if h.Plan.Shards != topo.p || h.Plan.ShardBy == "" {
				t.Fatalf("%+v: distributed plan %+v, want %d shards", spec, h.Plan, topo.p)
			}
			for _, k := range sampleKs(ref.Total()) {
				want, err1 := ref.AppendTuple(nil, k)
				got, err2 := h.AppendTuple(nil, k)
				if err1 != nil || err2 != nil {
					t.Fatalf("%+v k=%d: local %v, distributed %v", spec, k, err1, err2)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%+v k=%d: tuple %v, want %v", spec, k, got, want)
				}
				wa, err1 := ref.Access(k)
				ga, err2 := h.Access(k)
				if err1 != nil || err2 != nil || fmt.Sprint(ga) != fmt.Sprint(wa) {
					t.Fatalf("%+v k=%d: answer %v (%v), want %v (%v)", spec, k, ga, err2, wa, err1)
				}
				wi, errW := ref.Inverted(wa)
				gi, errG := h.Inverted(ga)
				if errors.Is(errW, engine.ErrNoInverted) != errors.Is(errG, engine.ErrNoInverted) {
					t.Fatalf("%+v: inverse support diverges (local %v, distributed %v)", spec, errW, errG)
				}
				if errW == nil && (errG != nil || gi != wi) {
					t.Fatalf("%+v k=%d: inverse %d (%v), want %d", spec, k, gi, errG, wi)
				}
			}
			// Out-of-bound ranks fail with the same sentinel.
			if _, err := h.Access(ref.Total()); !errors.Is(err, access.ErrOutOfBound) {
				t.Fatalf("%+v: Access(total) = %v, want ErrOutOfBound", spec, err)
			}
			if _, err := h.Access(-1); !errors.Is(err, access.ErrOutOfBound) {
				t.Fatalf("%+v: Access(-1) = %v, want ErrOutOfBound", spec, err)
			}
			// Full range scan: the P-way network merge must flatten to
			// the identical value stream.
			_, want, err := local.AccessRange(spec, nil, 0, ref.Total())
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := tc.ce.AccessRange(spec, nil, 0, ref.Total())
			if err != nil {
				t.Fatalf("%+v: distributed AccessRange: %v", spec, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: range streams diverge (%d vs %d values)", spec, len(got), len(want))
			}
		}
		// Counts scatter-sum to the single-node answer.
		wantN, err := local.Count(twoPath)
		if err != nil {
			t.Fatal(err)
		}
		gotN, info, err := tc.ce.CountSharded(context.Background(), twoPath, 0, "")
		if err != nil || gotN != wantN {
			t.Fatalf("distributed count = %d (%v), want %d", gotN, err, wantN)
		}
		if info.Shards != topo.p {
			t.Fatalf("count info %+v, want %d shards", info, topo.p)
		}
		// Select delegates to the distributed access path.
		sspec := engine.Spec{Query: twoPath, Order: "x, y, z"}
		want, err1 := local.Select(sspec, 3)
		got, err2 := tc.ce.Select(sspec, 3)
		if err1 != nil || err2 != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Select: %v (%v), want %v (%v)", got, err2, want, err1)
		}
		// The coordinator owns no data: mutations are refused.
		if err := tc.ce.AddRows("R", [][]int64{{1, 2}}); !errors.Is(err, engine.ErrReadOnly) {
			t.Fatalf("coordinator AddRows = %v, want ErrReadOnly", err)
		}
	}
}

// TestCoordinatorCountHonoursContext: a coordinator count rides the
// requester's context into the scatter, so a request that already ran
// out of budget costs the cluster nothing — no Count RPC leaves for any
// peer.
func TestCoordinatorCountHonoursContext(t *testing.T) {
	tc := startCluster(t, 2, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tc.ce.CountSharded(ctx, twoPath, 0, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountSharded under a cancelled context = %v, want context.Canceled", err)
	}
	for _, peer := range tc.coord.Table().Peers {
		if n := peer.Client.Stats().Calls[rpc.KindCount]; n != 0 {
			t.Fatalf("peer %s received %d Count calls for a cancelled request", peer.Addr, n)
		}
	}
	if n, _, err := tc.ce.CountSharded(context.Background(), twoPath, 0, ""); err != nil || n == 0 {
		t.Fatalf("CountSharded under a live context = %d, %v", n, err)
	}
}

// TestFDSpecRejectedOnce: coordinator and node turn an FD spec away
// with the one message engine.PlanDistributed owns — the coordinator
// before any RPC, a node (probed directly) as a bad request.
func TestFDSpecRejectedOnce(t *testing.T) {
	const msg = "engine: distributed serving does not support FD specs"
	tc := startCluster(t, 2, 4, nil)
	fds := []string{"S: y -> z"}
	_, err := tc.ce.Prepare(engine.Spec{Query: twoPath, Order: "x, z, y", FDs: fds})
	if err == nil || err.Error() != "cluster: "+msg {
		t.Fatalf("coordinator Prepare(FD spec) = %v", err)
	}
	for _, peer := range tc.coord.Table().Peers {
		if n := peer.Client.Stats().Calls[rpc.KindPrepare]; n != 0 {
			t.Fatalf("peer %s received %d Prepare calls for an FD spec", peer.Addr, n)
		}
	}
	_, err = tc.nodes[0].Prepare(context.Background(), rpc.Spec{
		Query: twoPath, Order: "x, z, y", FDs: fds, P: 4, ShardVar: "y", Owned: []int{0, 2},
	})
	var bad *rpc.BadRequestError
	if !errors.As(err, &bad) || bad.Msg != msg {
		t.Fatalf("node Prepare(FD spec) = %v, want bad request %q", err, msg)
	}
}

// postBody POSTs JSON and returns (status, raw body).
func postBody(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// TestDistributedHTTPByteIdentity pins the strongest form of the
// contract: the HTTP response BYTES from a coordinator are identical
// to a single-node sharded server's, for the one-shot endpoints and a
// full NDJSON cursor drain.
func TestDistributedHTTPByteIdentity(t *testing.T) {
	const p = 3
	tc := startCluster(t, 2, p, nil)
	dist := httptest.NewServer(serve.NewHandler(tc.ce))
	defer dist.Close()
	local := httptest.NewServer(serve.NewHandler(engine.New(testInstance(), engine.Options{})))
	defer local.Close()

	// Identical request bodies: the coordinator ignores the client's
	// shard count (the cluster config fixes P), the local server
	// honors it — posting shards=P to both makes the echoes line up.
	reqs := []struct {
		path string
		body map[string]any
	}{
		{"/v1/instance/access", map[string]any{
			"query": twoPath, "order": "x, y, z", "shards": p,
			"ks": []int64{0, 1, 17, 100, 1 << 40, -3},
		}},
		{"/v1/instance/access", map[string]any{
			"query": "Q(x, y) :- R(x, y)", "sum_by": []string{"x", "y"}, "shards": p,
			"ks": []int64{0, 5, 9},
		}},
		{"/v1/instance/range", map[string]any{
			"query": twoPath, "order": "y desc, x", "shards": p, "k0": 3, "k1": 60,
		}},
		{"/v1/instance/count", map[string]any{"query": twoPath, "shards": p}},
	}
	for _, r := range reqs {
		ds, db, _ := postBody(t, dist.URL+r.path, r.body)
		ls, lb, _ := postBody(t, local.URL+r.path, r.body)
		if ds != ls {
			t.Fatalf("%s: distributed %d, local %d (%s vs %s)", r.path, ds, ls, db, lb)
		}
		if !bytes.Equal(db, lb) {
			t.Fatalf("%s: bodies diverge:\ndistributed: %s\nlocal:       %s", r.path, db, lb)
		}
	}

	// NDJSON stream: register the same query on both servers, drain the
	// cursor in one read, diff the streams byte for byte.
	drain := func(srv *httptest.Server) []byte {
		reg := map[string]any{"name": "stream", "query": twoPath, "order": "x, y, z", "shards": p}
		if st, body, _ := postBody(t, srv.URL+"/v1/queries", reg); st != http.StatusOK && st != http.StatusCreated {
			t.Fatalf("register: %d %s", st, body)
		}
		var cr struct {
			Cursor string `json:"cursor"`
		}
		st, body, _ := postBody(t, srv.URL+"/v1/queries/stream/cursor", map[string]any{})
		if st != http.StatusOK && st != http.StatusCreated {
			t.Fatalf("cursor create: %d %s", st, body)
		}
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/cursors/"+cr.Cursor+"/next?n=1000000", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		stream, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor next: %d %s", resp.StatusCode, stream)
		}
		return stream
	}
	dStream, lStream := drain(dist), drain(local)
	if len(dStream) == 0 {
		t.Fatal("empty NDJSON stream")
	}
	if !bytes.Equal(dStream, lStream) {
		t.Fatalf("NDJSON streams diverge: %d vs %d bytes", len(dStream), len(lStream))
	}
}

// TestDistributedRPCBudget pins the paper's complexity promise at the
// network layer. Preparing a handle prices its S splitters in one lane
// per peer, each in batches of at most MaxPivots positions of that
// peer's shards: one batched access to the peer, one batched rank to
// every other, and never again. One Access(k) then starts between the two
// splitters bracketing k and is a handful of k-ary rank rounds: each
// round takes up to m·P pivots from one peer's windows, cutting the
// candidates to about 1/(m·P+1), and costs one batched access to that
// peer — which prices them on its own shards — and at most one batched
// rank to each other peer. So an access sends at most
// 2·(⌈log_{m·P+1}(n/(S+1))⌉+2)+1 RPCs of ANY kind summed over the peers,
// no request carries more than m·P pivots (let alone the wire cap), the
// bytes on the wire stay O(m·P·log(n/S)), the access of a splitter's own
// rank is ONE RPC to one node, and ra_cluster_rank_rounds_total counts
// the rounds. If someone replaces the rank search with a
// gather-everything approach — by ranges, by oversized batches, or by
// one RPC per answer — or builds the table without using it, one of the
// checks fails loudly.
func TestDistributedRPCBudget(t *testing.T) {
	const p = 4
	var wire atomic.Int64
	tc := startClusterOn(t, deepInstance, 2, p, func(l net.Listener) net.Listener {
		return meteredListener{Listener: l, bytes: &wire}
	})
	reg := metrics.NewRegistry()
	tc.coord.RegisterMetrics(reg)
	rankRounds := func() uint64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range samples {
			if sm.Name == "ra_cluster_rank_rounds_total" {
				return uint64(sm.Value)
			}
		}
		t.Fatal("no ra_cluster_rank_rounds_total series")
		return 0
	}
	spec := engine.Spec{Query: twoPath, Order: "x, y, z"}
	sent := func(kind rpc.Kind) (per []uint64, sum uint64) {
		for _, peer := range tc.coord.Table().Peers {
			n := peer.Client.Stats().Calls[kind]
			per, sum = append(per, n), sum+n
		}
		return per, sum
	}

	// A fill cancelled while a batch is being ranked stops every lane
	// before its next batch, and Prepare fails: each peer's lane sent at
	// most its first batch — one access to its peer, one rank to the
	// other.
	ctx, cancel := context.WithCancel(context.Background())
	stop := func() { cancel() }
	tc.onRank.Store(&stop)
	if _, err := tc.coord.BuildRemote(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildRemote cancelled mid-fill = %v, want context.Canceled", err)
	}
	tc.onRank.Store(nil)
	acc, a := sent(rpc.KindAccessBatch)
	rk, r := sent(rpc.KindRankBatch)
	if slices.Max(acc) > 1 || slices.Max(rk) > 1 || a == 0 || r == 0 {
		t.Fatalf("a fill cancelled during a rank batch sent access batches %v and rank batches %v; want at most one of each per peer", acc, rk)
	}

	// The fill: exactly its batches' RPCs on top of the Prepare.
	// startClusterOn places shard s on peer s mod 2; a shard contributes
	// a full share, or one splitter in every m·P answers when that is
	// fewer.
	before := tc.calls()
	acc0, _ := sent(rpc.KindAccessBatch)
	rk0, _ := sent(rpc.KindRankBatch)
	rh, err := tc.coord.BuildRemote(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	h := rh.Sh
	total := h.Total()
	splitters, batches, lanes := h.SplitterFill()
	lane, want := make([]uint64, len(tc.addrs)), 0 // each lane's positions, then batches
	for s, n := range h.PartTotals() {
		c := min(n/(shard.PivotsPerWindow*p), shard.SplittersPerShard)
		lane[s%len(lane)] += uint64(c)
		want += int(c)
	}
	if splitters != want || len(h.Splitters()) != splitters || lanes != len(tc.addrs) || want <= p*shard.MaxPivots {
		t.Fatalf("%d splitters over shards of %v in %d lanes, want %d in %d", splitters, h.PartTotals(), lanes, want, len(tc.addrs))
	}
	var all uint64
	for i := range lane {
		lane[i] = (lane[i] + shard.MaxPivots - 1) / shard.MaxPivots
		all += lane[i]
	}
	acc1, _ := sent(rpc.KindAccessBatch)
	rk1, _ := sent(rpc.KindRankBatch)
	for i, n := range tc.calls() {
		if d := n - before[i]; d != 1+all || uint64(batches) != all || acc1[i]-acc0[i] != lane[i] || rk1[i]-rk0[i] != all-lane[i] {
			t.Fatalf("preparing sent peer %d %d RPCs, %d accesses and %d ranks; want the Prepare, its lane's %d batches' accesses and the other lanes' %d ranks (%d batches reported)",
				i, d, acc1[i]-acc0[i], rk1[i]-rk0[i], lane[i], all-lane[i], batches)
		}
	}
	if got := tc.maxBatch.Swap(0); got != shard.MaxPivots || shard.MaxPivots > rpc.MaxPivots {
		t.Fatalf("largest fill batch carried %d pivots; want full batches of %d, wire cap %d", got, shard.MaxPivots, rpc.MaxPivots)
	}
	if n := rankRounds(); n != 0 {
		t.Fatalf("two fills counted %d rank rounds, want none", n)
	}

	const pivots = shard.PivotsPerWindow * p
	rounds := math.Ceil(math.Log(float64(total)/float64(splitters+1))/math.Log(pivots+1)) + 2
	rpcBound := uint64(2*rounds + 1)
	// Per RPC: framing, trace field and the spec (~300 bytes), plus per
	// pivot an answer one way and its ranks or position the other.
	byteBound := int64(2*rounds) * int64(len(tc.addrs)) * (512 + 64*pivots)
	if gather := total * 8 * 3; gather < 10*byteBound {
		t.Fatalf("instance too small to tell the budget (%d bytes) from gathering all %d answers (%d bytes)", byteBound, total, gather)
	}
	// The ends, and enough ranks drawn between that some search behind
	// the dense table still runs a round.
	ks := []int64{0, 1, total / 3, total / 2, total - 2, total - 1}
	rng := rand.New(rand.NewSource(total))
	for len(ks) < 64 {
		ks = append(ks, rng.Int63n(total))
	}
	hit := h.Splitters()[splitters/2]
	searched := uint64(0)
	for _, k := range append(ks, hit) {
		before, wire0, r0 := tc.calls(), wire.Load(), rankRounds()
		_, a0 := sent(rpc.KindAccessBatch)
		_, k0 := sent(rpc.KindRankBatch)
		if _, err := h.Access(k); err != nil {
			t.Fatalf("Access(%d): %v", k, err)
		}
		after, used, r := tc.calls(), wire.Load()-wire0, rankRounds()-r0
		_, a := sent(rpc.KindAccessBatch)
		_, rk := sent(rpc.KindRankBatch)
		a, rk = a-a0, rk-k0
		searched += r
		all := after[0] - before[0] + after[1] - before[1]
		t.Logf("Access(%d) of %d: %d rounds, %d access and %d rank RPCs (bound %d), %d bytes (bound %d)", k, total, r, a, rk, rpcBound, used, byteBound)
		// A round is one access to its source node and at most one rank
		// to each other node; the fetch of the result may follow.
		if all > rpcBound || all != a+rk || a < r || a > r+1 || rk > r*uint64(len(tc.addrs)-1) {
			t.Fatalf("Access(%d) over n=%d behind %d splitters: %d rounds sent %d RPCs (%d access, %d rank), bound %d", k, total, splitters, r, all, a, rk, rpcBound)
		}
		if used > byteBound {
			t.Fatalf("Access(%d) moved %d bytes over n=%d, bound %d", k, used, total, byteBound)
		}
		if k == hit && (all != 1 || r != 0) {
			t.Fatalf("Access(%d), a splitter's rank, cost %d RPCs in %d rounds; the table settles it but for one fetch", k, all, r)
		}
	}
	if searched == 0 {
		t.Fatalf("none of the probes %v needed a rank round", ks)
	}
	if got := tc.maxBatch.Load(); got == 0 || got > pivots {
		t.Fatalf("largest batched request of a probe carried %d pivots; want 1..%d (a round's m·P)", got, pivots)
	}
}

// TestSplitterFillObservable: the coordinator reports every splitter
// fill — the newest table's size on ra_cluster_splitters, the fill's
// wall time on ra_cluster_splitter_fill_seconds, and one
// cluster.splitter_fill span saying how many splitters, batches and
// lanes it took — from the first Register on.
func TestSplitterFillObservable(t *testing.T) {
	tc := startCluster(t, 2, 4, nil)
	reg := metrics.NewRegistry()
	tc.coord.RegisterMetrics(reg)
	tracer := trace.New(trace.Options{Rate: 1, Buffer: 16})
	tc.coord.SetTracer(tracer)
	scrape := func() (splitters, fills float64) {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		splitters, fills = -1, -1
		for _, sm := range samples {
			switch sm.Name {
			case "ra_cluster_splitters":
				splitters = sm.Value
			case "ra_cluster_splitter_fill_seconds_count":
				fills = sm.Value
			}
		}
		return splitters, fills
	}
	if s, n := scrape(); s != 0 || n != 0 {
		t.Fatalf("before any Register: ra_cluster_splitters %v, %v fills; want both series at 0", s, n)
	}
	spec := engine.Spec{Query: twoPath, Order: "x, y, z"}
	if _, err := tc.ce.Register("q", spec); err != nil {
		t.Fatal(err)
	}
	if s, n := scrape(); s <= 0 || n != 1 {
		t.Fatalf("after a Register: ra_cluster_splitters %v, %v fills; want a table and one fill", s, n)
	}
	rh, err := tc.coord.BuildRemote(context.Background(), engine.Spec{Query: twoPath, Order: "y desc, x"})
	if err != nil {
		t.Fatal(err)
	}
	want, batches, lanes := rh.Sh.SplitterFill()
	if s, n := scrape(); s != float64(want) || n != 2 || lanes != 2 || batches < lanes {
		t.Fatalf("after a second fill of %d splitters in %d batches over %d lanes: ra_cluster_splitters %v, %v fills", want, batches, lanes, s, n)
	}
	var spans []map[string]int64
	for _, tr := range tracer.Store().Snapshot() {
		for _, sp := range tr.Spans {
			if sp.Name == "cluster.splitter_fill" {
				attrs := map[string]int64{}
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Num
				}
				spans = append(spans, attrs)
			}
		}
	}
	if len(spans) != 2 || !slices.ContainsFunc(spans, func(a map[string]int64) bool { return a["splitters"] == int64(want) }) {
		t.Fatalf("cluster.splitter_fill spans %v; want one per fill, the last of %d splitters", spans, want)
	}
	for _, attrs := range spans {
		if attrs["splitters"] <= 0 || attrs["batches"] < 2 || attrs["lanes"] != 2 {
			t.Fatalf("cluster.splitter_fill span %v; want its splitters, batches and two lanes", attrs)
		}
	}
}

// TestSplitterFillSpanUnderARequest: a fill that a request prepares
// takes more spans than the request's trace buffer holds, yet its
// cluster.splitter_fill span and the request's later spans are kept:
// the fill roots a local trace of its own under the request's span.
func TestSplitterFillSpanUnderARequest(t *testing.T) {
	tc := startClusterOn(t, fillInstance, 2, 4, nil)
	tracer := trace.New(trace.Options{Rate: 1, Buffer: 16})
	tc.coord.SetTracer(tracer)
	ctx, req := tracer.Start(context.Background(), "request", trace.KindServer)
	rh, err := tc.coord.BuildRemote(ctx, engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	_, after := tracer.Start(ctx, "after", trace.KindInternal)
	after.End()
	req.End()
	n, _, _ := rh.Sh.SplitterFill()
	var fill map[string]int64
	dropped, kept := 0, false
	for _, tr := range tracer.Store().Snapshot() {
		for _, sp := range tr.Spans {
			switch {
			case sp.Name == "cluster.splitter_fill" && sp.Parent == req.Context().SpanID:
				fill, dropped = map[string]int64{}, tr.Dropped
				for _, a := range sp.Attrs {
					fill[a.Key] = a.Num
				}
			case sp.Name == "after":
				kept = true
			}
		}
	}
	if fill == nil || fill["splitters"] != int64(n) || dropped == 0 || !kept {
		t.Fatalf("fill of %d splitters: span %v in a trace that dropped %d spans, request's later span kept %v; want the span, over a full buffer, and the later span",
			n, fill, dropped, kept)
	}
}

// TestAccessCancelledBetweenRounds: a caller that gives up mid-search
// costs the cluster nothing further — the rank search checks the
// context before every round, so no RPC leaves after the cancel.
func TestAccessCancelledBetweenRounds(t *testing.T) {
	tc := startCluster(t, 2, 4, nil)
	h, err := tc.ce.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sent := func() (n uint64) {
		for _, peer := range tc.coord.Table().Peers {
			st := peer.Client.Stats()
			n += st.Calls[rpc.KindAccessBatch] + st.Calls[rpc.KindRankBatch] + st.Calls[rpc.KindRange]
		}
		return n
	}
	before := sent()
	if _, err := h.AppendTupleCtx(ctx, nil, h.Total()/2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Access under a cancelled context = %v, want context.Canceled", err)
	}
	if _, err := h.AccessRangeCtx(ctx, nil, h.Total()/2, h.Total()/2+8); !errors.Is(err, context.Canceled) {
		t.Fatalf("AccessRange under a cancelled context = %v, want context.Canceled", err)
	}
	if d := sent() - before; d != 0 {
		t.Fatalf("%d probe RPCs left for a cancelled request", d)
	}
}

// TestDeadNodeDegradation kills one node of a live cluster and pins
// the failure contract: queries fail fast with ErrUnavailable (HTTP
// 503 + Retry-After), and the prober flips the coordinator's readiness.
func TestDeadNodeDegradation(t *testing.T) {
	tc := startClusterOn(t, bigInstance, 2, 2, nil)
	spec := engine.Spec{Query: twoPath, Order: "x, y, z"}
	h, err := tc.ce.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A rank the coordinator's splitter table settles on its own: what
	// is cached must not answer for a node that is gone.
	k := tc.splitterRank(t, spec, 1)
	if _, err := h.Access(k); err != nil {
		t.Fatal(err)
	}

	// Wait for readiness first so the flip below is provably caused by
	// the kill, not by the prober never having run.
	waitFor(t, "cluster ready", func() bool { return len(tc.coord.ReadyReasons()) == 0 })

	// Kill node 1: its pooled connections die with the server, so even
	// warm paths hit the retry-once-then-fail contract.
	_ = tc.servers[1].Close()

	if _, err := h.Access(k); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("Access over dead node = %v, want ErrUnavailable", err)
	}
	// A fresh spec cannot even prepare.
	if _, err := tc.ce.Prepare(engine.Spec{Query: twoPath, Order: "z, x, y"}); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("Prepare over dead node = %v, want ErrUnavailable", err)
	}

	// HTTP surface: 503 with Retry-After, and /readyz flips once the
	// prober notices.
	srv := httptest.NewServer(serve.NewHandlerWith(tc.ce, serve.Config{ReadyCheck: tc.coord.ReadyReasons}))
	defer srv.Close()
	st, _, hdr := postBody(t, srv.URL+"/v1/instance/access", map[string]any{
		"query": twoPath, "order": "x, y, z", "ks": []int64{k},
	})
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("access over dead node: status %d, Retry-After %q", st, hdr.Get("Retry-After"))
	}
	waitFor(t, "prober flips readiness", func() bool { return len(tc.coord.ReadyReasons()) > 0 })
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead node = %d, want 503", resp.StatusCode)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFaultInjectedBoot boots a cluster behind a dropping listener:
// nothing works, then clearing the fault restores service with no
// intervention — the client pools and prober recover on their own.
func TestFaultInjectedBoot(t *testing.T) {
	var faults []*rpc.FaultListener
	tc := startCluster(t, 2, 2, func(l net.Listener) net.Listener {
		fl := rpc.NewFaultListener(l)
		fl.SetMode(rpc.FaultDrop)
		faults = append(faults, fl)
		return fl
	})
	spec := engine.Spec{Query: twoPath, Order: "x, y, z"}
	if _, err := tc.ce.Prepare(spec); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("Prepare through dropping listeners = %v, want ErrUnavailable", err)
	}
	for _, fl := range faults {
		fl.SetMode(rpc.FaultNone)
	}
	h, err := tc.ce.Prepare(spec)
	if err != nil {
		t.Fatalf("Prepare after clearing faults: %v", err)
	}
	if _, err := h.Access(0); err != nil {
		t.Fatalf("Access after clearing faults: %v", err)
	}
	waitFor(t, "prober sees recovery", func() bool { return len(tc.coord.ReadyReasons()) == 0 })
}

// TestStaleVersionAfterNodeMutation pins the documented limitation:
// mutating a shard node under a live coordinator invalidates the
// coordinator's cached handles permanently — honest ErrStaleVersion
// (HTTP 410 Gone), never silently mixed-version answers.
func TestStaleVersionAfterNodeMutation(t *testing.T) {
	tc := startClusterOn(t, bigInstance, 2, 2, nil)
	srv := httptest.NewServer(serve.NewHandler(tc.ce))
	defer srv.Close()
	reg := map[string]any{"name": "q", "query": twoPath, "order": "x, y, z"}
	if st, body, _ := postBody(t, srv.URL+"/v1/queries", reg); st != http.StatusOK && st != http.StatusCreated {
		t.Fatalf("register: %d %s", st, body)
	}
	spec := engine.Spec{Query: twoPath, Order: "x, y, z"}
	h, err := tc.ce.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A rank the coordinator's splitter table settles on its own: what
	// was priced at the prepared version must not answer for a node
	// that moved past it.
	k := tc.splitterRank(t, spec, 0)
	if _, err := h.Access(k); err != nil {
		t.Fatal(err)
	}

	// Mutate node 0 out from under the coordinator.
	if err := tc.engines[0].AddRows("R", [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}

	if _, err := h.Access(k); !errors.Is(err, rpc.ErrStaleVersion) {
		t.Fatalf("Access after node mutation = %v, want ErrStaleVersion", err)
	}
	st, body, _ := postBody(t, srv.URL+"/v1/queries/q/access", map[string]any{"ks": []int64{k}})
	if st != http.StatusGone {
		t.Fatalf("v1 access after node mutation = %d %s, want 410", st, body)
	}
}

// TestConfigPlacement covers the config layer: explicit placement must
// partition exactly, defaults are rendezvous-stable, and malformed
// layouts are rejected with reasons.
func TestConfigPlacement(t *testing.T) {
	// Rendezvous default: deterministic, covers every shard.
	c1, err := cluster.Parse([]byte(`{"shards": 8, "nodes": [{"addr": "a:1"}, {"addr": "b:1"}, {"addr": "c:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.Parse([]byte(`{"shards": 8, "nodes": [{"addr": "a:1"}, {"addr": "b:1"}, {"addr": "c:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for i := range c1.Nodes {
		owned += len(c1.Nodes[i].Shards)
		if fmt.Sprint(c1.Nodes[i].Shards) != fmt.Sprint(c2.Nodes[i].Shards) {
			t.Fatalf("rendezvous placement not deterministic: %v vs %v", c1.Nodes[i].Shards, c2.Nodes[i].Shards)
		}
	}
	if owned != 8 {
		t.Fatalf("rendezvous placed %d of 8 shards", owned)
	}
	for s := 0; s < 8; s++ {
		ni := c1.Owner(s)
		found := false
		for _, o := range c1.Nodes[ni].Shards {
			found = found || o == s
		}
		if !found {
			t.Fatalf("Owner(%d) = node %d, which does not list it", s, ni)
		}
	}

	for _, bad := range []string{
		`{"shards": 0, "nodes": [{"addr": "a:1"}]}`,
		`{"shards": 2, "nodes": []}`,
		`{"shards": 2, "nodes": [{"addr": "a:1"}, {"addr": "a:1"}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0]}, {"addr": "b:1"}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0, 1]}, {"addr": "b:1", "shards": [1]}]}`,
		`{"shards": 3, "nodes": [{"addr": "a:1", "shards": [0, 1]}, {"addr": "b:1", "shards": [1]}]}`,
		`{"shards": 2, "nodes": [{"addr": "a:1", "shards": [0, 7]}, {"addr": "b:1", "shards": [1]}]}`,
	} {
		if _, err := cluster.Parse([]byte(bad)); err == nil {
			t.Fatalf("Parse accepted %s", bad)
		}
	}
}

// specTap hands the test the Spec a node was actually given: decoded off
// the wire, carrying its wire bytes as its build-cache key.
type specTap struct {
	rpc.Backend
	seen chan rpc.Spec
}

func (s specTap) Prepare(ctx context.Context, spec rpc.Spec) (*rpc.PrepareInfo, error) {
	s.seen <- spec
	return s.Backend.Prepare(ctx, spec)
}

// TestNodeProbeAllocs pins the node-side cost of one batched rank call
// below the RPC layer: the rank and flag slices it returns and the part
// list, nothing for finding the build (the spec's key is the bytes it
// arrived in; re-encoding it per probe was four more).
func TestNodeProbeAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	node := cluster.NewNode(engine.New(testInstance(), engine.Options{}))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := specTap{Backend: node, seen: make(chan rpc.Spec, 1)}
	srv := rpc.NewServer(tap)
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	c := rpc.NewClient(lis.Addr().String(), rpc.Options{})
	defer c.Close()

	ctx := context.Background()
	info, err := c.Prepare(ctx, rpc.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z", P: 4, ShardVar: "y", Owned: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	spec := <-tap.seen
	shards, pos := make([]int, 32), make([]int64, 32)
	for i := range pos {
		j := i / 16
		if info.Totals[j] == 0 {
			t.Fatalf("owned shard %d is empty", spec.Owned[j])
		}
		shards[i], pos[i] = spec.Owned[j], int64(i%16)*info.Totals[j]/16
	}
	answers, _, err := node.AccessBatch(ctx, spec, info.Version, shards, pos)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ranks, exact, err := node.RankBatch(ctx, spec, info.Version, answers)
		if err != nil || len(ranks) != 2*len(answers) || len(exact) != len(answers) {
			t.Fatalf("RankBatch = %d ranks, %d flags, %v", len(ranks), len(exact), err)
		}
	})
	if allocs > 4 {
		t.Fatalf("RankBatch of 32 answers on 2 owned shards allocates %.0f times, ceiling 4", allocs)
	}
}

// TestConcurrentFirstProbes: Prepares and probes of one spec the node
// has never seen, all at once, build it once and agree on it. Under
// -race this is the check that the build cache reads a build only once
// it is published: the first prober writes it outside the cache lock.
func TestConcurrentFirstProbes(t *testing.T) {
	e := engine.New(testInstance(), engine.Options{})
	node := cluster.NewNode(e)
	spec := rpc.Spec{Query: twoPath, Order: "x, y, z", P: 4, ShardVar: "y", Owned: []int{0, 2}}
	ctx := context.Background()
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				info, err := node.Prepare(ctx, spec)
				if err == nil && info.Version != e.Version() {
					err = fmt.Errorf("prepared version %d, engine at %d", info.Version, e.Version())
				}
				errs <- err
				return
			}
			ranks, _, err := node.RankBatch(ctx, spec, e.Version(), []order.Answer{{0, 0, 0}})
			if err == nil && len(ranks) != len(spec.Owned) {
				err = fmt.Errorf("%d ranks on %d owned shards", len(ranks), len(spec.Owned))
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st, err := node.Stats(ctx); err != nil || st.Builds != 1 {
		t.Fatalf("node caches %+v (%v), want the one build", st, err)
	}
}
