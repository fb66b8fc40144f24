package rpc

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// fakeBackend is a deterministic Backend for protocol tests: shard s
// holds answers [s*100, s*100+total) as single-column tuples.
type fakeBackend struct {
	total    int64
	failWith error         // when set, every data call returns it
	block    chan struct{} // when set, data calls block until closed
}

func (f *fakeBackend) wait(ctx context.Context) error {
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return f.failWith
}

func (f *fakeBackend) Prepare(ctx context.Context, spec Spec) (*PrepareInfo, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	info := &PrepareInfo{
		Version:   7,
		Mode:      "layered-lex",
		Completed: []order.LexEntry{{Var: 0, Dir: order.Asc}, {Var: 1, Dir: order.Desc}},
		Totals:    make([]int64, len(spec.Owned)),
	}
	for i := range spec.Owned {
		info.Totals[i] = f.total
		// Two groups per shard, of the shard's leading values.
		info.Groups = append(info.Groups, Groups{Vals: []values.Value{int64(spec.Owned[i]), int64(spec.Owned[i] + 10)}, Starts: []int64{0, f.total / 2}})
	}
	return info, nil
}

func (f *fakeBackend) Count(ctx context.Context, spec CountSpec) (int64, error) {
	if err := f.wait(ctx); err != nil {
		return 0, err
	}
	return f.total * int64(len(spec.Owned)), nil
}

func (f *fakeBackend) rank(ctx context.Context, spec Spec, version uint64, a order.Answer) ([]int64, bool, error) {
	if err := f.wait(ctx); err != nil {
		return nil, false, err
	}
	if version != 7 {
		return nil, false, ErrStaleVersion
	}
	ranks := make([]int64, len(spec.Owned))
	for i := range ranks {
		ranks[i] = a[0] % f.total
	}
	return ranks, a[0]%2 == 0, nil
}

func (f *fakeBackend) access(ctx context.Context, shard int, k int64) (order.Answer, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	if k < 0 || k >= f.total {
		return nil, access.ErrOutOfBound
	}
	return order.Answer{int64(shard)*100 + k, -k}, nil
}

func (f *fakeBackend) Range(ctx context.Context, spec Spec, version uint64, shard int, k0, k1 int64) ([]int64, int, error) {
	if err := f.wait(ctx); err != nil {
		return nil, 0, err
	}
	if k0 < 0 || k1 < k0 || k1 > f.total {
		return nil, 0, access.ErrOutOfBound
	}
	out := make([]int64, 0, 2*(k1-k0))
	for k := k0; k < k1; k++ {
		out = append(out, int64(shard)*100+k, -k)
	}
	return out, 2, nil
}

func (f *fakeBackend) AccessBatch(ctx context.Context, spec Spec, version uint64, shards []int, pos []int64, priced bool) ([]order.Answer, []int64, error) {
	out := make([]order.Answer, len(pos))
	var ranks []int64
	for i, k := range pos {
		a, err := f.access(ctx, shards[i], k)
		if err != nil {
			return nil, nil, err
		}
		if !priced {
			out[i] = a
			continue
		}
		r, _, err := f.rank(ctx, spec, version, a)
		if err != nil {
			return nil, nil, err
		}
		for j, s := range spec.Owned {
			if s == shards[i] {
				r[j] = k
			}
		}
		out[i], ranks = a, append(ranks, r...)
	}
	return out, ranks, nil
}

func (f *fakeBackend) RankBatch(ctx context.Context, spec Spec, version uint64, answers []order.Answer) ([]int64, []bool, error) {
	var ranks []int64
	exact := make([]bool, len(answers))
	for i, a := range answers {
		r, ex, err := f.rank(ctx, spec, version, a)
		if err != nil {
			return nil, nil, err
		}
		ranks, exact[i] = append(ranks, r...), ex
	}
	return ranks, exact, nil
}

func (f *fakeBackend) Stats(ctx context.Context) (*PeerStats, error) {
	return &PeerStats{Version: 7, Tuples: 1234, Builds: 3}, nil
}

func (f *fakeBackend) Health(ctx context.Context) (*HealthInfo, error) {
	return &HealthInfo{Ready: true, Reasons: []string{"warming"}}, nil
}

// startServer serves the backend on a loopback listener, optionally
// wrapped, and tears everything down with the test.
func startServer(t *testing.T, b Backend, wrap func(net.Listener) net.Listener) (*Server, net.Listener) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		lis = wrap(lis)
	}
	srv := NewServer(b)
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, lis
}

func testSpec() Spec {
	return Spec{
		Query:    "Q(x, y) :- R(x, y)",
		Order:    "x, y desc",
		P:        4,
		ShardVar: "x",
		Owned:    []int{1, 3},
	}
}

func TestRoundTrip(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, nil)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	ctx := context.Background()

	info, err := c.Prepare(ctx, testSpec())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if info.Version != 7 || info.Mode != "layered-lex" || len(info.Totals) != 2 || info.Totals[0] != 10 {
		t.Fatalf("Prepare info = %+v", info)
	}
	if len(info.Completed) != 2 || info.Completed[1] != (order.LexEntry{Var: 1, Dir: order.Desc}) {
		t.Fatalf("Completed = %v", info.Completed)
	}
	if fmt.Sprint(info.Groups) != "[{[1 11] [0 5]} {[3 13] [0 5]}]" {
		t.Fatalf("Groups = %v", info.Groups)
	}

	n, err := c.Count(ctx, CountSpec{Query: "Q(x) :- R(x)", P: 4, ShardVar: "x", Owned: []int{0, 2}})
	if err != nil || n != 20 {
		t.Fatalf("Count = %d, %v", n, err)
	}

	ranks, exact, err := c.Rank(ctx, testSpec(), 7, order.Answer{6, 0})
	if err != nil || !exact || len(ranks) != 2 || ranks[0] != 6 {
		t.Fatalf("Rank = %v, %v, %v", ranks, exact, err)
	}

	rows, err := c.Range(ctx, testSpec(), 7, 1, 2, 5)
	if err != nil || len(rows) != 3 || rows[0][0] != 102 || rows[2][1] != -4 {
		t.Fatalf("Range = %v, %v", rows, err)
	}

	batch, aranks, err := c.AccessBatch(ctx, testSpec(), 7, []int{3, 1, 3}, []int64{4, 0, 9}, true)
	if err != nil || len(batch) != 3 || batch[0][0] != 304 || batch[1][0] != 100 || batch[2][1] != -9 || fmt.Sprint(aranks) != "[4 4 0 0 9 9]" {
		t.Fatalf("AccessBatch = %v, %v, %v", batch, aranks, err)
	}
	// Unpriced, the same fetch comes back without a ranks block.
	if fetched, ranks, err := c.AccessBatch(ctx, testSpec(), 7, []int{3, 1, 3}, []int64{4, 0, 9}, false); err != nil || fmt.Sprint(fetched) != fmt.Sprint(batch) || ranks != nil {
		t.Fatalf("unpriced AccessBatch = %v, %v, %v", fetched, ranks, err)
	}
	branks, bexact, err := c.RankBatch(ctx, testSpec(), 7, []order.Answer{{6, 0}, {3, 1}, {14, 2}})
	if err != nil || fmt.Sprint(branks) != "[6 6 3 3 4 4]" || fmt.Sprint(bexact) != "[true false true]" {
		t.Fatalf("RankBatch = %v, %v, %v", branks, bexact, err)
	}
	// An empty round is legal on the wire and costs no allocation.
	if got, ranks, err := c.AccessBatch(ctx, testSpec(), 7, nil, nil, true); err != nil || len(got) != 0 || len(ranks) != 0 {
		t.Fatalf("empty AccessBatch = %v, %v, %v", got, ranks, err)
	}

	st, err := c.StatsCall(ctx)
	if err != nil || st.Tuples != 1234 || st.Builds != 3 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}

	h, err := c.Health(ctx)
	if err != nil || !h.Ready || len(h.Reasons) != 1 || h.Reasons[0] != "warming" {
		t.Fatalf("Health = %+v, %v", h, err)
	}
}

// TestPrepareGroupsBudget pins the group lists of a Prepare reply: they
// round-trip one per owned shard, empty ones included; lists holding
// more pairs in all than the budget are sent as none, which is how a
// node whose groups would overrun the frame says so; and a decoder
// refuses lists that do not match the totals or overrun the budget.
func TestPrepareGroupsBudget(t *testing.T) {
	info := &PrepareInfo{Version: 3, Mode: "layered-lex", Totals: []int64{10, 0, 7},
		Groups: []Groups{{Vals: []values.Value{3, 5}, Starts: []int64{0, 4}}, {}, {Vals: []values.Value{-9}, Starts: []int64{0}}}}
	e := &enc{}
	info.encode(e)
	d := &dec{b: e.b}
	if got := decodePrepareInfo(d); d.err() != nil || !reflect.DeepEqual(got, info) {
		t.Fatalf("PrepareInfo round trip = %+v, %v; want %+v", got, d.err(), info)
	}
	for _, c := range []struct {
		budget int
		lists  int
	}{{3, 3}, {2, 0}, {0, 0}} {
		e := &enc{}
		e.groups(info.Groups, c.budget)
		d := &dec{b: e.b}
		if got := d.groups(3, maxGroups); d.err() != nil || len(got) != c.lists {
			t.Fatalf("3 pairs under a budget of %d: %d lists (%v), want %d", c.budget, len(got), d.err(), c.lists)
		}
	}
	e = &enc{}
	e.groups(info.Groups, maxGroups)
	for _, c := range []struct {
		lists, budget int
	}{{2, maxGroups}, {4, maxGroups}, {3, 2}} {
		d := &dec{b: e.b}
		if got := d.groups(c.lists, c.budget); d.err() == nil {
			t.Fatalf("3 lists of 3 pairs decoded as %d lists under a budget of %d: %v", c.lists, c.budget, got)
		}
	}
}

// TestSentinelStatuses pins that app-level errors cross the wire as the
// EXACT engine sentinels — that equivalence is what makes distributed
// error responses byte-identical to single-node ones.
func TestSentinelStatuses(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, nil)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	ctx := context.Background()

	if _, _, err := c.AccessBatch(ctx, testSpec(), 7, []int{1, 1}, []int64{2, 99}, true); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("out-of-range AccessBatch = %v, want ErrOutOfBound", err)
	}
	if _, _, err := c.RankBatch(ctx, testSpec(), 8, []order.Answer{{0, 0}}); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale RankBatch = %v, want ErrStaleVersion", err)
	}

	b.failWith = access.ErrNotAnAnswer
	if _, _, err := c.Rank(ctx, testSpec(), 7, order.Answer{0, 0}); !errors.Is(err, access.ErrNotAnAnswer) {
		t.Fatalf("Rank = %v, want ErrNotAnAnswer", err)
	}

	b.failWith = &BadRequestError{Msg: "no such variable"}
	var bre *BadRequestError
	if _, err := c.Prepare(ctx, testSpec()); !errors.As(err, &bre) || bre.Msg != "no such variable" {
		t.Fatalf("Prepare = %v, want BadRequestError", err)
	}

	b.failWith = errors.New("disk exploded")
	var re *RemoteError
	if _, err := c.Prepare(ctx, testSpec()); !errors.As(err, &re) {
		t.Fatalf("Prepare = %v, want RemoteError", err)
	}
	// App-status errors must NOT be retried: two Prepare calls so far
	// with failWith set => exactly that many reached the backend.
	if got := c.Stats().Calls[KindPrepare]; got != 2 {
		t.Fatalf("Prepare client calls = %d, want 2 (no transport retries)", got)
	}
}

// TestPoolReuse pins that sequential calls share one connection.
func TestPoolReuse(t *testing.T) {
	var accepts atomic.Int64
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, func(l net.Listener) net.Listener {
		return &countingListener{Listener: l, n: &accepts}
	})
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Health(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("5 sequential calls used %d connections, want 1", n)
	}
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (c *countingListener) Accept() (net.Conn, error) {
	conn, err := c.Listener.Accept()
	if err == nil {
		c.n.Add(1)
	}
	return conn, err
}

// killFirstListener closes its first accepted connection immediately,
// simulating a peer that dies mid-handshake exactly once.
type killFirstListener struct {
	net.Listener
	killed atomic.Bool
}

func (k *killFirstListener) Accept() (net.Conn, error) {
	conn, err := k.Listener.Accept()
	if err == nil && k.killed.CompareAndSwap(false, true) {
		conn.Close()
		return k.Listener.Accept()
	}
	return conn, err
}

// TestRetryOnce pins the transport-retry contract: one transparent
// retry on a fresh connection, so a single connection-level failure
// never surfaces.
func TestRetryOnce(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, func(l net.Listener) net.Listener {
		return &killFirstListener{Listener: l}
	})
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("call across one dead connection = %v, want transparent retry", err)
	}
}

// TestFaultModes drives the fault-injection seam end to end: a dropping
// listener yields ErrUnavailable after the retry, a hanging listener
// yields a deadline error, and clearing the fault restores service.
func TestFaultModes(t *testing.T) {
	b := &fakeBackend{total: 10}
	var fl *FaultListener
	_, lis := startServer(t, b, func(l net.Listener) net.Listener {
		fl = NewFaultListener(l)
		return fl
	})
	c := NewClient(lis.Addr().String(), Options{DialTimeout: 200 * time.Millisecond, CallTimeout: 500 * time.Millisecond})
	defer c.Close()

	fl.SetMode(FaultDrop)
	if _, err := c.Health(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Health through dropping listener = %v, want ErrUnavailable", err)
	}

	fl.SetMode(FaultHang)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	err := func() error { _, err := c.Health(ctx); return err }()
	cancel()
	if err == nil {
		t.Fatal("Health through hanging listener succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Health through hanging listener = %v", err)
	}

	fl.SetMode(FaultNone)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after clearing fault = %v", err)
	}
}

// TestDeadlinePropagation pins that a caller deadline bounds the call
// even when the backend never answers.
func TestDeadlinePropagation(t *testing.T) {
	b := &fakeBackend{total: 10, block: make(chan struct{})}
	defer close(b.block)
	_, lis := startServer(t, b, nil)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Prepare(ctx, testSpec())
	if err == nil {
		t.Fatal("Prepare with blocked backend succeeded")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Prepare took %v despite a 250ms deadline", d)
	}
}

// TestCorruptFrame pins CRC verification: flipping one payload bit is
// detected, never decoded.
func TestCorruptFrame(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	defer cliConn.Close()

	go func() {
		e := &enc{}
		e.str("hello")
		var buf []byte
		buf = append(buf, e.b...)
		_ = writeFrameCorrupted(srvConn, buf)
	}()
	_, err := readFrame(cliConn, nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame read = %v, want ErrBadFrame", err)
	}
}

// writeFrameCorrupted writes a well-formed frame, then flips one bit of
// the payload so the CRC no longer matches.
func writeFrameCorrupted(w net.Conn, payload []byte) error {
	e := &enc{}
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, castagnoli))
	flipped := append([]byte(nil), payload...)
	flipped[0] ^= 0x01
	e.b = append(e.b, flipped...)
	_, err := w.Write(e.b)
	return err
}

// TestHostileLengths pins the decoder against absurd length prefixes: a
// claimed billion-element slice in a tiny payload must fail cleanly,
// not allocate.
func TestHostileLengths(t *testing.T) {
	e := &enc{}
	e.u32(1 << 30) // a billion strings, in an 8-byte payload
	e.u32(0)
	d := &dec{b: e.b}
	_ = d.strs()
	if !d.bad {
		t.Fatal("decoder accepted a hostile length prefix")
	}

	e2 := &enc{}
	e2.u32(1 << 30)
	d2 := &dec{b: e2.b}
	_ = d2.i64s()
	if !d2.bad {
		t.Fatal("decoder accepted a hostile i64 count")
	}

	// The batch kinds are capped at MaxPivots however much payload
	// backs the claim: one answer, one position over the cap is refused
	// before anything is allocated for it.
	over := make([]order.Answer, MaxPivots+1)
	for i := range over {
		over[i] = order.Answer{int64(i)}
	}
	rank := RankBatchReq{Spec: testSpec(), Version: 7, Answers: over}
	e3 := &enc{}
	rank.encode(e3)
	d3 := &dec{b: e3.b}
	if got := decodeRankBatchReq(d3); !d3.bad || got.Answers != nil {
		t.Fatalf("decoder accepted %d answers over the %d cap", len(got.Answers), MaxPivots)
	}
	acc := AccessBatchReq{Spec: testSpec(), Version: 7, Shards: make([]int, MaxPivots+1), Pos: make([]int64, MaxPivots+1)}
	e4 := &enc{}
	acc.encode(e4)
	d4 := &dec{b: e4.b}
	if got := decodeAccessBatchReq(d4); !d4.bad || got.Pos != nil {
		t.Fatalf("decoder accepted %d positions over the %d cap", len(got.Pos), MaxPivots)
	}
	// At the cap both decode.
	rank.Answers, acc.Shards, acc.Pos = over[:MaxPivots], acc.Shards[:MaxPivots], acc.Pos[:MaxPivots]
	e5, e6 := &enc{}, &enc{}
	rank.encode(e5)
	acc.encode(e6)
	d5, d6 := &dec{b: e5.b}, &dec{b: e6.b}
	if got := decodeRankBatchReq(d5); d5.err() != nil || len(got.Answers) != MaxPivots {
		t.Fatalf("rank batch at the cap: %d answers, %v", len(got.Answers), d5.err())
	}
	if got := decodeAccessBatchReq(d6); d6.err() != nil || len(got.Pos) != MaxPivots {
		t.Fatalf("access batch at the cap: %d positions, %v", len(got.Pos), d6.err())
	}
	// A claimed width the payload cannot back never reaches make().
	e7 := &enc{}
	e7.u32(1 << 31) // width
	e7.u32(2)       // count
	e7.i64(1)
	d7 := &dec{b: e7.b}
	if got, _, _ := d7.rows(nil, MaxPivots); !d7.bad || got != nil {
		t.Fatal("decoder accepted a hostile answer width")
	}
}

// TestKindTables pins the per-kind tables against the kind list: every
// named kind has a slot in the client's and the server's counters (a
// kind numbered past a table used to panic on its first call), every
// method label belongs to one kind (the batch kinds own "rank" and
// "access"), and a kind this build does not know — the retired
// single-answer kinds 3 and 4 included — is answered with the
// bad-request status, not a crash.
func TestKindTables(t *testing.T) {
	b := &fakeBackend{total: 10}
	srv, lis := startServer(t, b, nil)
	sreg, creg := metrics.NewRegistry(), metrics.NewRegistry()
	srv.Instrument(sreg)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	cm := NewClientMetrics(creg, "peer-a")
	c.SetMetrics(cm)
	owner := map[string]Kind{}
	for kind, name := range kindNames {
		if kind == 0 || int(kind) >= numKinds {
			t.Fatalf("kind %d (%s) has no slot in tables of %d", kind, name, numKinds)
		}
		if cm.requests[kind] == nil || cm.errors[kind] == nil || srv.m.Load().requests[kind] == nil {
			t.Fatalf("kind %d (%s) has no counter", kind, name)
		}
		if other, dup := owner[name]; dup {
			t.Fatalf("kinds %d and %d share the method label %q", other, kind, name)
		}
		owner[name] = kind
	}
	if owner["rank"] != KindRankBatch || owner["access"] != KindAccessBatch {
		t.Fatalf("rank and access labels belong to kinds %d and %d, want the batch kinds", owner["rank"], owner["access"])
	}
	// The single-answer call is a batch of one: both spellings land on
	// the batch kind and on the one "rank" series.
	ctx := context.Background()
	if _, _, err := c.Rank(ctx, testSpec(), 7, order.Answer{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RankBatch(ctx, testSpec(), 7, []order.Answer{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Calls[KindRankBatch] != 2 || cm.requests[KindRankBatch].Value() != 2 || srv.m.Load().requests[KindRankBatch].Value() != 2 {
		t.Fatalf("calls %v, client rank series %d, server rank series %d; want 2 each",
			st.Calls, cm.requests[KindRankBatch].Value(), srv.m.Load().requests[KindRankBatch].Value())
	}

	// Kinds this build does not know: the retired kinds 3 and 4 as a v2
	// coordinator would send them (could it connect), and what a node
	// that predates a future kind sees.
	for _, unknown := range []Kind{3, 4, 200} {
		err := c.callInner(ctx, unknown, func(*enc) {}, func(*dec) {})
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Fatalf("kind %d answered %v, want a BadRequestError (status 3)", unknown, err)
		}
		if KindName(unknown) != "?" {
			t.Fatalf("kind %d is named %q", unknown, KindName(unknown))
		}
	}
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("server unusable after an unknown kind: %v", err)
	}
}

// TestClientMetrics pins the per-peer series names on a live registry.
func TestClientMetrics(t *testing.T) {
	b := &fakeBackend{total: 10}
	_, lis := startServer(t, b, nil)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	reg := metrics.NewRegistry()
	c.SetMetrics(NewClientMetrics(reg, "peer-a"))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	want := map[string]bool{
		"ra_rpc_client_requests_total":  false,
		"ra_rpc_client_errors_total":    false,
		"ra_rpc_client_latency_seconds": false,
		"ra_rpc_client_in_flight":       false,
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("metric %s not registered (have %v)", n, names)
		}
	}
}

// TestServerInstrument pins the server-side series, and that the
// instruments are published without a lock on the request path:
// Instrument may race with in-flight calls (-race checks the hand-over),
// and every call that starts after it returned is counted exactly once.
func TestServerInstrument(t *testing.T) {
	b := &fakeBackend{total: 10}
	srv, lis := startServer(t, b, nil)
	c := NewClient(lis.Addr().String(), Options{})
	defer c.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Health(ctx); err != nil {
					t.Errorf("Health during Instrument: %v", err)
					return
				}
			}
		}()
	}
	reg := metrics.NewRegistry()
	srv.Instrument(reg)
	close(stop)
	wg.Wait()

	m := srv.m.Load()
	before, timed := m.requests[KindHealth].Value(), m.duration.Count()
	const calls = 25
	for i := 0; i < calls; i++ {
		if _, err := c.Health(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.requests[KindHealth].Value() - before; got != calls {
		t.Fatalf("%d calls after Instrument counted %d times", calls, got)
	}
	if got := m.duration.Count() - timed; got != calls {
		t.Fatalf("%d calls after Instrument timed %d times", calls, got)
	}
	// A request that began uninstrumented neither raised nor lowers the
	// gauge: at rest it reads zero.
	if got := m.inflight.Value(); got != 0 {
		t.Fatalf("in-flight gauge at rest = %d", got)
	}
	found := false
	for _, n := range reg.Names() {
		if n == "ra_rpc_server_requests_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("ra_rpc_server_requests_total not registered")
	}
}

// TestVersionMismatchHandshake pins that a peer speaking a different
// protocol version is refused at connect, not mid-call.
func TestVersionMismatchHandshake(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A "future" server: right magic, wrong version.
		bad := append([]byte{}, magic[:]...)
		bad = append(bad, 0xFF, 0xFF, 0, 0)
		_, _ = conn.Write(bad)
	}()
	c := NewClient(lis.Addr().String(), Options{CallTimeout: time.Second})
	defer c.Close()
	if _, err := c.Health(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Health against wrong-version peer = %v, want ErrUnavailable", err)
	}
}
