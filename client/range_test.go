package client

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/shard/shardtest"
	"rankedaccess/internal/workload"
)

// rangeRows is the window the SDK's range promises are stated for — the
// benchmark's.
const rangeRows = 512

// rangeTarget registers the two-path query on a loopback server with a
// few thousand answers.
func rangeTarget(tb testing.TB) *Prepared {
	tb.Helper()
	c, _ := testServer(tb, 4000, 9)
	p, err := c.Register(context.Background(), "w", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		tb.Fatal(err)
	}
	if p.Info.Total < 4*rangeRows {
		tb.Fatalf("only %d answers", p.Info.Total)
	}
	return p
}

// BenchmarkClientRange is one 512-row Prepared.Range over loopback HTTP:
// request encode, server handler, body decode.
func BenchmarkClientRange(b *testing.B) {
	p := rangeTarget(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k0 := int64(i) * 7 % (p.Info.Total - rangeRows)
		rows, err := p.Range(ctx, k0, k0+rangeRows)
		if err != nil || len(rows) != rangeRows {
			b.Fatalf("range = (%d rows, %v)", len(rows), err)
		}
	}
}

// TestClientRangeAllocs: a window costs the SDK what the request costs
// net/http plus a handful for the rows, not a slice per row (1 682
// before the rows codec, ≈ 140 after; client and server share this
// process, so the server's are counted too).
func TestClientRangeAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := rangeTarget(t)
	ctx := context.Background()
	k0 := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		k0 = (k0 + 7) % (p.Info.Total - rangeRows) // past the server's coalesce cache
		if rows, err := p.Range(ctx, k0, k0+rangeRows); err != nil || len(rows) != rangeRows {
			t.Fatalf("range = (%d rows, %v)", len(rows), err)
		}
	})
	if allocs > 200 {
		t.Fatalf("a %d-row Range allocates %.0f times, ceiling 200", rangeRows, allocs)
	}
}

// BenchmarkClientAccess is one uncached single-rank Prepared.Access over
// loopback HTTP: request encode, server handler, body decode.
func BenchmarkClientAccess(b *testing.B) {
	p := rangeTarget(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i) * 7 % p.Info.Total
		if ans, err := p.Access(ctx, k); err != nil || len(ans) != 1 {
			b.Fatalf("access = (%v, %v)", ans, err)
		}
	}
}

// TestClientAccessAllocs: a point read costs the SDK and the server
// what the request costs net/http plus a handful for the body, with no
// reflection over the answers (138 before the access codec and the
// coalescer's list, 120 after, measured with go1.24 on linux/amd64;
// client and server share this process, so the server's are counted
// too).
func TestClientAccessAllocs(t *testing.T) {
	if shardtest.RaceEnabled() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := rangeTarget(t)
	ctx := context.Background()
	k := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		k = (k + 7) % p.Info.Total // past the server's coalesce cache
		if ans, err := p.Access(ctx, k); err != nil || len(ans) != 1 || len(ans[0].Tuple) != 3 {
			t.Fatalf("access = (%v, %v)", ans, err)
		}
	})
	if allocs > 128 {
		t.Fatalf("a one-rank Access allocates %.0f times, ceiling 128", allocs)
	}
}

// checkOneArray fails unless rows are cut back to back from one backing
// array, each clipped so that an append leaves its neighbour alone.
func checkOneArray(t *testing.T, rows [][]Value) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		w := uintptr(len(rows[i-1])) * unsafe.Sizeof(Value(0))
		if uintptr(unsafe.Pointer(&rows[i][0]))-uintptr(unsafe.Pointer(&rows[i-1][0])) != w {
			t.Fatalf("row %d does not follow row %d in memory", i, i-1)
		}
	}
	next := rows[1][0]
	if grown := append(rows[0], -1); rows[1][0] != next || &grown[0] == &rows[0][0] {
		t.Fatalf("append to row 0 wrote into row 1")
	}
}

func TestRowsShareOneArray(t *testing.T) {
	p := rangeTarget(t)
	ctx := context.Background()
	rows, err := p.Range(ctx, 3, 40)
	if err != nil || len(rows) != 37 {
		t.Fatalf("range = (%d rows, %v)", len(rows), err)
	}
	checkOneArray(t, rows)
	cur, err := p.Cursor(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	page, err := cur.Next(ctx, 37)
	if err != nil || len(page) != 37 {
		t.Fatalf("next = (%d rows, %v)", len(page), err)
	}
	checkOneArray(t, page)
	ans, err := p.Access(ctx, 3, 4, 5)
	if err != nil || len(ans) != 3 {
		t.Fatalf("access = (%v, %v)", ans, err)
	}
	checkOneArray(t, [][]Value{ans[0].Tuple, ans[1].Tuple, ans[2].Tuple})
}

// TestRangeReusesOneConnection: every body is read to EOF, so the
// transport gets its connection back and 200 calls dial once.
func TestRangeReusesOneConnection(t *testing.T) {
	_, in := workload.TwoPath(rand.New(rand.NewSource(9)), 4000, 500, 0.3)
	srv := httptest.NewUnstartedServer(serve.NewHandler(engine.New(in, engine.Options{})))
	var dials atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, &Options{HTTPClient: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Register(ctx, "w", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if _, err := p.Range(ctx, i, i+rangeRows); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("200 Range calls opened %d connections, want 1", n)
	}
}

// lossyTransport forwards every request, and drops the response of the
// first one whose path contains lose — after the server handled it.
type lossyTransport struct {
	http.RoundTripper
	lose string
	sent atomic.Int64 // requests matching lose
}

func (l *lossyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.RoundTripper.RoundTrip(r)
	if err == nil && strings.Contains(r.URL.Path, l.lose) && l.sent.Add(1) == 1 {
		resp.Body.Close()
		return nil, errors.New("lossy: response lost")
	}
	return resp, err
}

// TestCursorAdvanceIsNotReplayed: a cursor-advancing GET whose response
// is lost after the handler ran comes back as the transport's error,
// having been sent once; replaying it would hand the caller the page
// after the lost one as if it were the next. What the server moved past
// is then reported by every later call, never skipped.
func TestCursorAdvanceIsNotReplayed(t *testing.T) {
	for _, mode := range []string{"next", "stream"} {
		t.Run(mode, func(t *testing.T) {
			p := rangeTarget(t)
			lossy := &lossyTransport{RoundTripper: p.c.hc.Transport, lose: "/next"}
			p.c.hc = &http.Client{Transport: lossy}
			ctx := context.Background()
			cur, err := p.Cursor(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			advance := func() (int, error) {
				if mode == "stream" {
					return cur.Stream(ctx, 10, func([]Value) error { return nil })
				}
				rows, err := cur.Next(ctx, 10)
				return len(rows), err
			}
			if n, err := advance(); err == nil || errors.Is(err, ErrCursorGap) || n != 0 {
				t.Fatalf("lost response: (%d rows, %v), want the transport's error", n, err)
			}
			if sent := lossy.sent.Load(); sent != 1 {
				t.Fatalf("the lost request was sent %d times, want 1", sent)
			}
			for i := 0; i < 2; i++ {
				if n, err := advance(); !errors.Is(err, ErrCursorGap) || n != 0 {
					t.Fatalf("call %d after the loss: (%d rows, %v), want ErrCursorGap", i, n, err)
				}
			}
			if cur.Pos() != 0 {
				t.Fatalf("Pos = %d after receiving nothing, want 0", cur.Pos())
			}
			// An idempotent GET through the same transport is still replayed.
			lossy.lose = "/v1/queries"
			lossy.sent.Store(0)
			if _, err := p.c.Queries(ctx); err != nil || lossy.sent.Load() != 2 {
				t.Fatalf("list after a lost response: %v after %d sends, want nil after 2", err, lossy.sent.Load())
			}
		})
	}
}

// TestWidthZeroWindow: the one answer of a Boolean query is a row of no
// values on all three row paths.
func TestWidthZeroWindow(t *testing.T) {
	ctx := context.Background()
	c, _ := testServer(t, 200, 5)
	p, err := c.Register(ctx, "b", Spec{Query: "Q() :- R(x, y), S(y, z)"})
	if err != nil || p.Info.Total != 1 {
		t.Fatalf("register = (%+v, %v), want total 1", p, err)
	}
	rows, err := p.Range(ctx, 0, 1)
	if err != nil || len(rows) != 1 || rows[0] == nil || len(rows[0]) != 0 {
		t.Fatalf("range = (%#v, %v), want one empty row", rows, err)
	}
	cur, err := p.Cursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	page, err := cur.Next(ctx, 5)
	if err != nil || len(page) != 1 || len(page[0]) != 0 || !cur.Done() {
		t.Fatalf("next = (%#v, %v, done=%v), want one empty row and done", page, err, cur.Done())
	}
	if cur, err = p.Cursor(ctx, 0); err != nil {
		t.Fatal(err)
	}
	n, err := cur.Stream(ctx, 5, func(row []Value) error {
		if len(row) != 0 {
			t.Errorf("streamed row %v, want empty", row)
		}
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("stream = (%d, %v), want 1 row", n, err)
	}
}
