package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"rankedaccess"
	"rankedaccess/client"
	"rankedaccess/internal/access"
	"rankedaccess/internal/cluster"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/shard"
)

// The layer ladder issues one seeded probe list at every layer of the
// stack, in process, on one shared instance, and reports what a probe
// costs at each rung and what the rung adds over the one below. It is
// the traced run: the harness records a span around every call it makes
// into a layer (run → rung → batch → request), and in the traced pass
// the numbers come from those spans.

const (
	ladderProbes  = 4096 // length of the shared probe list
	overlayEdits  = 256  // edits under the overlay rung
	hotRanks      = 64   // distinct ranks of the hot (coalescible) rung
	writeProbes   = 128  // write → first-probe pairs; stays below the engine's background-rebuild threshold
	buildRepeats  = 3    // single-shot build timings are medians of this many
	selectRepeats = 5
)

// rungSpec is one timed loop of the ladder.
type rungSpec struct {
	name    string
	per     int  // calls per timed batch
	units   int  // reported units per call (rows of a range read); 0 means 1
	request bool // record a span per call (rungs whose call is one request)
	calls   int  // stop after this many calls; 0 = run for the rung budget
	fn      func(i int) error
}

// rungResult is what one pass measured for one rung.
type rungResult struct {
	perUnitNs float64 // median over batches
	allocs    float64 // heap allocations per call
	calls     int
}

// ladder carries one pass's state; rec == nil is the untraced pass.
type ladder struct {
	rec    *recorder
	run    int // the run span
	budget time.Duration
}

// rung runs one spec. Untraced, a batch is timed with two clock reads;
// traced, the value is what the spans attribute to the layer (see
// layerTimes), so the harness's own loop is excluded. The heap is
// collected before the rung so an earlier rung's garbage is not this
// one's GC cycle.
func (l *ladder) rung(ctx context.Context, s rungSpec) (rungResult, error) {
	units := max(s.units, 1)
	runtime.GC()
	rid := l.rec.begin(s.name, l.run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var perUnit []float64
	deadline := time.Now().Add(l.budget)
	calls := 0
	for b := 0; ; b++ {
		if s.calls > 0 {
			if calls >= s.calls {
				break
			}
		} else if b >= 3 && !time.Now().Before(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return rungResult{}, err
		}
		bid := l.rec.begin("batch", rid)
		t0 := time.Now()
		for j := 0; j < s.per; j++ {
			qid := -1
			if s.request {
				qid = l.rec.begin("request", bid)
			}
			if err := s.fn(calls); err != nil {
				return rungResult{}, fmt.Errorf("ladder rung %s, call %d: %w", s.name, calls, err)
			}
			if s.request {
				l.rec.end(qid)
			}
			calls++
		}
		dt := time.Since(t0)
		l.rec.end(bid)
		perUnit = append(perUnit, float64(dt)/float64(s.per*units))
	}
	runtime.ReadMemStats(&after)
	l.rec.end(rid)
	if l.rec != nil {
		perUnit = perUnit[:0]
		for _, ns := range layerTimes(l.rec.spans, rid) {
			perUnit = append(perUnit, float64(ns)/float64(s.per*units))
		}
	}
	return rungResult{
		perUnitNs: median(perUnit),
		allocs:    float64(after.Mallocs-before.Mallocs) / float64(calls),
		calls:     calls,
	}, nil
}

// fixtures is everything the rungs probe: one instance, one structure
// per layer built over it, and the in-process servers.
type fixtures struct {
	d        *dataset
	ks       []int64 // the shared probe list
	k0s      []int64 // window offsets
	expect   [][]int64
	answers  []order.Answer // Access(ks[i]), for the rank rungs
	lex      *access.Lex
	sum      *access.Sum
	sumTotal int64
	overlay  *access.Overlay
	eng      *rankedaccess.Engine
	pq       *rankedaccess.PreparedQuery
	p1, p4   *shard.Handle
	handler  http.Handler
	prepared *client.Prepared
	rpcCl    *rpc.Client
	rpcSpec  rpc.Spec
	rpcVer   uint64
	rpcRows  int64 // answers in the rpc rung's shard
	coordPQ  *engine.PreparedQuery
	coordReg *metrics.Registry
	peers    int

	singles map[string]float64 // one-shot timings: builds, select, write path
	closers []func()
}

func (f *fixtures) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// timed runs fn `repeats` times under spans named for the metric and
// returns the median duration and the mean allocation count.
func timed(rec *recorder, run int, name string, repeats int, fn func() error) (time.Duration, float64, error) {
	var durs []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < repeats; i++ {
		id := rec.begin(name, run)
		t0 := time.Now()
		err := fn()
		durs = append(durs, float64(time.Since(t0)))
		rec.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return time.Duration(median(durs)), float64(after.Mallocs-before.Mallocs) / float64(repeats), nil
}

// newFixtures builds every layer over one instance generated from
// (seed, n), timing the builds as it goes. dir is scratch space for the
// WAL rung.
func newFixtures(ctx context.Context, rec *recorder, run int, seed int64, n int, dir string) (*fixtures, error) {
	d, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	f := &fixtures{d: d, singles: map[string]float64{}}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// database: parse the TSV form of R, as cmd/serve -data does.
	var tsv bytes.Buffer
	if err := d.in.WriteRelation("R", &tsv); err != nil {
		return nil, err
	}
	dur, _, err := timed(rec, run, "database.read_tsv_ms", buildRepeats, func() error {
		return database.NewInstance().ReadRelation("R", bytes.NewReader(tsv.Bytes()))
	})
	if err != nil {
		return nil, err
	}
	f.singles["database.read_tsv_ms"] = ms(dur)

	// access: the paper's structures.
	dur, allocs, err := timed(rec, run, "access.build_lex_ms", buildRepeats, func() error {
		f.lex, err = access.BuildLex(d.q, d.in, d.lex)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.singles["access.build_lex_ms"] = ms(dur)
	f.singles["access.build_lex_allocs"] = allocs
	total := f.lex.Total()
	rows := min(int64(rangeRows), total/2)
	rng := rand.New(rand.NewSource(seed ^ 0x6c616464))
	for i := 0; i < ladderProbes; i++ {
		k := rng.Int63n(total)
		a, err := f.lex.Access(k)
		if err != nil {
			return nil, err
		}
		f.ks = append(f.ks, k)
		f.k0s = append(f.k0s, rng.Int63n(total-rows))
		f.answers = append(f.answers, a)
		f.expect = append(f.expect, rankedaccess.AnswerTuple(d.q, a))
	}
	// SUM direct access needs one atom covering the free variables
	// (Theorem 5.1), which the two-path query lacks; the rung uses R
	// alone over the same instance.
	sumQ := cq.MustParse("Q(x, y) :- R(x, y)")
	if f.sum, err = access.BuildSum(sumQ, d.in, order.IdentitySum(sumQ.Head...)); err != nil {
		return nil, err
	}
	f.sumTotal = f.sum.Total()
	if f.overlay, err = newOverlay(f, n); err != nil {
		return nil, err
	}
	selLex, err := order.ParseLex(d.q, selectOrder)
	if err != nil {
		return nil, err
	}
	dur, _, err = timed(rec, run, "selection.lex_select_ms", selectRepeats, func() error {
		_, err := rankedaccess.Select(d.q, d.in, selLex, rng.Int63n(total), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.singles["selection.lex_select_ms"] = ms(dur)

	// engine: the facade, cold Register = plan + build.
	spec := rankedaccess.EngineSpec{Query: queryText, Order: orderText}
	dur, _, err = timed(rec, run, "engine.prepare_ms", buildRepeats, func() error {
		if f.eng != nil {
			_ = f.eng.Close()
		}
		f.eng = rankedaccess.NewEngine(d.in, rankedaccess.EngineOptions{})
		f.pq, err = f.eng.Register(queryName, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, func() { _ = f.eng.Close() })
	f.singles["engine.prepare_ms"] = ms(dur)
	if err := writePath(rec, run, f, seed, n, dir); err != nil {
		return nil, err
	}

	// shard: the in-process sharded merge, 1 and 4 parts.
	for _, p := range []int{1, 4} {
		pt, err := shard.Choose(d.q, "", p)
		if err != nil {
			return nil, err
		}
		var h *shard.Handle
		dur, _, err := timed(rec, run, fmt.Sprintf("shard.p%d_build_ms", p), 1, func() error {
			h, err = shard.BuildLex(d.q, d.in, d.lex, pt)
			return err
		})
		if err != nil {
			return nil, err
		}
		if p == 1 {
			f.p1 = h
		} else {
			f.p4 = h
			f.singles["shard.p4_build_ms"] = ms(dur)
		}
	}

	// serve and client: the handler with no socket, then the same
	// handler behind a loopback listener, driven through the SDK.
	f.handler = serve.NewHandlerWith(f.eng, serve.Config{})
	srv := httptest.NewServer(f.handler)
	f.closers = append(f.closers, srv.Close)
	cl, closeIdle, err := sdk(ctx, strings.TrimPrefix(srv.URL, "http://"), 1)
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, closeIdle)
	if f.prepared, err = cl.Prepared(ctx, queryName); err != nil {
		return nil, err
	}

	if err := f.startCluster(ctx); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// newOverlay lays overlayEdits answer-level edits over the lex
// structure: half delete existing answers, half add tuples whose z lies
// outside the domain (so they cannot be in the base).
func newOverlay(f *fixtures, n int) (*access.Overlay, error) {
	base, ok := access.BaseOfLex(f.lex)
	if !ok {
		return nil, fmt.Errorf("lex structure cannot carry an overlay")
	}
	z, _ := f.d.q.VarByName("z")
	var adds, dels []order.Answer
	seen := map[int64]bool{}
	for i := 0; len(dels) < overlayEdits/2 && i < len(f.ks); i++ {
		if seen[f.ks[i]] {
			continue
		}
		seen[f.ks[i]] = true
		dels = append(dels, f.answers[i])
		add := slices.Clone(f.answers[i])
		add[z] = int64(domain(n) + i)
		adds = append(adds, add)
	}
	return access.NewOverlay(base, adds, dels)
}

// writePath times the engine's write path on a private copy of the
// instance: Engine.ApplyBatch of one row, the first probe after it (the
// catch-up that publishes a new overlay epoch), and delta.WAL.Append
// with its fsync in dir.
func writePath(rec *recorder, run int, f *fixtures, seed int64, n int, dir string) error {
	eng := rankedaccess.NewEngine(f.d.in.Clone(), rankedaccess.EngineOptions{})
	defer eng.Close()
	pq, err := eng.Register(queryName, rankedaccess.EngineSpec{Query: queryText, Order: orderText})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	walPath := filepath.Join(dir, "ladder-wal.log")
	wal, _, err := delta.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer os.Remove(walPath)
	defer wal.Close()
	stream := newWriteStream(seed, f.d)
	var apply, catchup, appendWAL []float64
	var buf []int64
	for i := 0; i < writeProbes; i++ {
		muts := []rankedaccess.Mutation{stream.next().asMutation()}
		id := rec.begin("engine.apply_batch_us", run)
		t0 := time.Now()
		_, err := eng.ApplyBatch(muts)
		apply = append(apply, float64(time.Since(t0))/1e3)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("engine.catchup_us", run)
		t0 = time.Now()
		h, err := pq.Acquire()
		if err == nil {
			buf, err = h.AppendTuple(buf[:0], f.ks[i]%h.Total())
		}
		catchup = append(catchup, float64(time.Since(t0))/1e3)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("delta.wal_append_us", run)
		t0 = time.Now()
		err = wal.Append(delta.Batch{Seq: uint64(i + 1), Muts: muts})
		appendWAL = append(appendWAL, float64(time.Since(t0))/1e3)
		rec.end(id)
		if err != nil {
			return err
		}
	}
	eng.Quiesce()
	f.singles["engine.apply_batch_us"] = median(apply)
	f.singles["engine.catchup_us"] = median(catchup)
	f.singles["delta.wal_append_us"] = median(appendWAL)
	return nil
}

// startCluster boots two in-process shard nodes over the shared
// instance, each behind a real RARC listener on loopback, a coordinator
// over them whose per-peer RPC counters land on a registry the harness
// owns, and a bare rpc.Client to the first node for the RPC rungs.
func (f *fixtures) startCluster(ctx context.Context) error {
	var addrs []string
	for range shardOwners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		eng := engine.New(f.d.in, engine.Options{})
		srv := rpc.NewServer(cluster.NewNode(eng))
		go func() { _ = srv.Serve(lis) }() // returns nil on Close; an accept error surfaces as failed rungs
		f.closers = append(f.closers, func() { _ = srv.Close(); _ = eng.Close() })
		addrs = append(addrs, lis.Addr().String())
	}
	f.peers = len(addrs)
	raw, err := json.Marshal(clusterLayout(addrs))
	if err != nil {
		return err
	}
	cfg, err := cluster.Parse(raw)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(cfg, rpc.Options{})
	f.closers = append(f.closers, coord.Close)
	f.coordReg = metrics.NewRegistry()
	coord.RegisterMetrics(f.coordReg)
	ce := engine.New(nil, engine.Options{Remote: coord})
	f.closers = append(f.closers, func() { _ = ce.Close() })
	if f.coordPQ, err = ce.Register(queryName, engine.Spec{Query: queryText, Order: orderText, Shards: 4}); err != nil {
		return err
	}

	pt, err := shard.Choose(f.d.q, "", 4)
	if err != nil {
		return err
	}
	f.rpcCl = rpc.NewClient(addrs[0], rpc.Options{})
	f.closers = append(f.closers, f.rpcCl.Close)
	f.rpcSpec = rpc.Spec{Query: queryText, Order: orderText, P: 4, ShardVar: pt.VarName, Owned: shardOwners[0]}
	info, err := f.rpcCl.Prepare(ctx, f.rpcSpec)
	if err != nil {
		return err
	}
	f.rpcVer, f.rpcRows = info.Version, info.Totals[0]
	return nil
}

// rankCalls reads the coordinator's per-peer rank-RPC counters off the
// harness's registry.
func (f *fixtures) rankCalls() (float64, error) {
	var buf bytes.Buffer
	if err := f.coordReg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	s, err := metrics.ParseText(&buf)
	if err != nil {
		return 0, err
	}
	return scrape(s).sum("ra_rpc_client_requests_total", "method", "rank"), nil
}

// post sends one JSON request into the handler with no socket.
func (f *fixtures) post(path, body string) error {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", path, rec.Code, rec.Body.String())
	}
	return nil
}

// ladderRow is one printed line of the ladder.
type ladderRow struct {
	name     string
	value    float64
	unit     string
	allocs   float64 // < 0: not measured
	tax      string
	overhead float64 // traced ÷ untraced; 0: single-shot, not applicable
}

// runLadder builds the fixtures, runs the untraced and the traced pass,
// writes the span file, and returns the per-layer metrics plus the
// printable table.
func runLadder(ctx context.Context, e *env, seed int64, n int, seconds float64, spanPath string) (map[string]float64, []ladderRow, error) {
	rec := newRecorder(fmt.Sprintf("ladder-seed%d", seed))
	run := rec.begin("run", -1)
	f, err := newFixtures(ctx, rec, run, seed, n, e.tmp)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()

	// Both passes share the budget; 20 probe rungs in each.
	budget := time.Duration(seconds / 40 * float64(time.Second))
	plain, err := f.pass(ctx, &ladder{budget: budget}, true)
	if err != nil {
		return nil, nil, err
	}
	traced, err := f.pass(ctx, &ladder{rec: rec, run: run, budget: budget}, false)
	if err != nil {
		return nil, nil, err
	}
	rec.end(run)
	if err := rec.writeFile(spanPath); err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	var rows []ladderRow
	var overheads []float64
	// emit records a probe rung: value from the traced pass's spans,
	// allocations from the untraced pass (spans allocate).
	emit := func(rung, metricName string, div float64, allocName string) {
		v := traced[rung].perUnitNs / div
		m[metricName] = v
		row := ladderRow{name: metricName, value: v, unit: layerUnit(metricName), allocs: -1}
		if allocName != "" {
			m[allocName] = plain[rung].allocs
			row.allocs = plain[rung].allocs
		}
		if p := plain[rung].perUnitNs; p > 0 {
			row.overhead = traced[rung].perUnitNs / p
			overheads = append(overheads, row.overhead)
		}
		rows = append(rows, row)
	}
	single := func(name string) {
		m[name] = f.singles[name]
		rows = append(rows, ladderRow{name: name, value: f.singles[name], unit: layerUnit(name), allocs: -1})
	}
	tax := func(name string, v float64, over string) {
		m[name] = v
		rows = append(rows, ladderRow{name: name, value: v, unit: layerUnit(name), allocs: -1, tax: "over " + over})
	}

	single("database.read_tsv_ms")
	single("access.build_lex_ms")
	m["access.build_lex_allocs"] = f.singles["access.build_lex_allocs"]
	rows[len(rows)-1].allocs = f.singles["access.build_lex_allocs"]
	emit("access.lex_access", "access.lex_access_ns", 1, "access.lex_access_allocs")
	emit("access.lex_rank", "access.lex_rank_ns", 1, "")
	emit("access.sum_access", "access.sum_access_ns", 1, "")
	emit("access.lex_range", "access.lex_range_ns_per_row", 1, "")
	emit("access.overlay_access", "access.overlay_access_ns", 1, "")
	tax("access.overlay_tax_ns", m["access.overlay_access_ns"]-m["access.lex_access_ns"], "access.lex_access_ns")
	single("selection.lex_select_ms")
	single("engine.prepare_ms")
	emit("engine.access", "engine.access_ns", 1, "engine.access_allocs")
	tax("engine.tax_ns", m["engine.access_ns"]-m["access.lex_access_ns"], "access.lex_access_ns")
	emit("engine.range", "engine.range_ns_per_row", 1, "")
	single("engine.apply_batch_us")
	single("engine.catchup_us")
	single("delta.wal_append_us")
	single("shard.p4_build_ms")
	emit("shard.p1_access", "shard.p1_access_ns", 1, "")
	emit("shard.p4_access", "shard.p4_access_ns", 1, "")
	tax("shard.p4_tax_ns", m["shard.p4_access_ns"]-m["shard.p1_access_ns"], "shard.p1_access_ns")
	emit("shard.p4_range", "shard.p4_range_ns_per_row", 1, "")
	emit("serve.handler_access", "serve.handler_access_us", 1e3, "serve.handler_access_allocs")
	tax("serve.tax_us", m["serve.handler_access_us"]-m["engine.access_ns"]/1e3, "engine.access_ns")
	emit("serve.handler_hot_access", "serve.handler_hot_access_us", 1e3, "")
	emit("serve.handler_range", "serve.handler_range_us", 1e3, "")
	emit("client.loopback_access", "client.loopback_access_us", 1e3, "")
	tax("client.tax_us", m["client.loopback_access_us"]-m["serve.handler_access_us"], "serve.handler_access_us")
	emit("client.loopback_range", "client.loopback_range_us", 1e3, "")
	emit("rpc.rank_call", "rpc.rank_call_us", 1e3, "")
	emit("rpc.range_call", "rpc.range_call_us", 1e3, "")
	emit("cluster.coord_access", "cluster.coord_access_us", 1e3, "")
	tax("cluster.tax_us", m["cluster.coord_access_us"]-m["shard.p4_access_ns"]/1e3, "shard.p4_access_ns")
	emit("cluster.coord_range", "cluster.coord_range_us", 1e3, "")
	// Rounds are counted on the untraced pass; with a fixed seed the
	// count repeats exactly.
	m["cluster.rank_rounds_per_access"] = plain["cluster.rank_rounds"].perUnitNs
	rows = append(rows, ladderRow{name: "cluster.rank_rounds_per_access", value: m["cluster.rank_rounds_per_access"], unit: "count", allocs: -1})
	m["harness.trace_overhead_ratio"] = median(overheads)
	rows = append(rows, ladderRow{name: "harness.trace_overhead_ratio", value: m["harness.trace_overhead_ratio"], unit: "ratio", allocs: -1, tax: "median over rungs"})
	return m, rows, nil
}
