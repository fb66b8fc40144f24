package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

const twoPath = "Q(x, y, z) :- R(x, y), S(y, z)"

// testServer boots a real serve handler over a generated instance and
// dials it.
func testServer(t testing.TB, n int, seed int64) (*Client, *engine.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(serve.NewHandler(e))
	t.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL, &Options{HTTPClient: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	return c, e
}

func TestDialRejectsBadTargets(t *testing.T) {
	ctx := context.Background()
	if _, err := Dial(ctx, "ftp://example.com", nil); err == nil {
		t.Fatal("ftp scheme accepted")
	}
	if _, err := Dial(ctx, "http://127.0.0.1:1", nil); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

func TestRegisterAndProbe(t *testing.T) {
	ctx := context.Background()
	c, e := testServer(t, 400, 1)

	p, err := c.Register(ctx, "by_xyz", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Info.Total == 0 || !p.Info.Tractable {
		t.Fatalf("info = %+v", p.Info)
	}

	// Cross-check a few probes against the engine.
	h, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := p.Access(ctx, 0, p.Info.Total/2, p.Info.Total-1, p.Info.Total+9)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{0, p.Info.Total / 2, p.Info.Total - 1} {
		a, err := h.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(answers[i].Tuple) != fmt.Sprint(h.HeadTuple(a)) {
			t.Fatalf("k=%d: %v, want %v", k, answers[i].Tuple, h.HeadTuple(a))
		}
	}
	if answers[3].Err == "" {
		t.Fatal("out-of-bound probe reported no error")
	}

	rows, err := p.Range(ctx, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("range returned %d rows", len(rows))
	}
	sel, err := p.Select(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sel) != fmt.Sprint(rows[0]) {
		t.Fatalf("select(3) = %v, range row 0 = %v", sel, rows[0])
	}
	n, err := p.Count(ctx)
	if err != nil || n != p.Info.Total {
		t.Fatalf("count = (%d, %v), want %d", n, err, p.Info.Total)
	}
	cls, err := p.Classify(ctx, "")
	if err != nil || !cls.Tractable {
		t.Fatalf("classify = (%+v, %v)", cls, err)
	}

	qs, err := c.Queries(ctx)
	if err != nil || len(qs) != 1 || qs[0].Name != "by_xyz" {
		t.Fatalf("queries = (%+v, %v)", qs, err)
	}
	p2, err := c.Prepared(ctx, "by_xyz")
	if err != nil || p2.Info.Total != p.Info.Total {
		t.Fatalf("Prepared = (%+v, %v)", p2, err)
	}
	if err := c.Evict(ctx, "by_xyz"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepared(ctx, "by_xyz"); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("after evict: %v, want ErrNotPrepared", err)
	}
}

func TestTypedErrors(t *testing.T) {
	ctx := context.Background()
	c, e := testServer(t, 200, 2)

	if _, err := c.Prepared(ctx, "ghost"); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("unknown name: %v, want ErrNotPrepared", err)
	}
	if _, err := c.RegisterStrict(ctx, "hard", Spec{Query: twoPath, Order: "x, z, y"}); !errors.Is(err, ErrIntractable) {
		t.Fatalf("strict intractable: %v, want ErrIntractable", err)
	}

	p, err := c.Register(ctx, "q", Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Range(ctx, 0, p.Info.Total+5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oob range: %v, want ErrOutOfRange", err)
	}
	if _, err := p.Cursor(ctx, p.Info.Total+1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oob cursor: %v, want ErrOutOfRange", err)
	}

	// Cursors are pinned to their epoch: a server-side mutation does not
	// invalidate an open cursor, which keeps serving its snapshot.
	cur, err := p.Cursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{12345, 12345}}); err != nil {
		t.Fatal(err)
	}
	if batch, err := cur.Next(ctx, 5); err != nil || len(batch) != 5 {
		t.Fatalf("cursor across mutation = (%d rows, %v), want 5 rows", len(batch), err)
	}

	var apiErr *APIError
	_, err = p.Range(ctx, 0, p.Info.Total+5)
	if !errors.As(err, &apiErr) || apiErr.Status != 416 || apiErr.Message == "" {
		t.Fatalf("range error not a populated *APIError: %#v", err)
	}
}

func TestCursorNextAndStreamAgree(t *testing.T) {
	ctx := context.Background()
	c, _ := testServer(t, 400, 3)
	p, err := c.Register(ctx, "s", Spec{Query: twoPath, Order: "x, y desc, z"})
	if err != nil {
		t.Fatal(err)
	}
	total := p.Info.Total
	if total < 40 {
		t.Fatalf("instance too small: %d", total)
	}

	// Drain via JSON paging.
	curA, err := p.Cursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var paged [][]Value
	for !curA.Done() {
		batch, err := curA.Next(ctx, 17)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, batch...)
	}

	// Drain via NDJSON streaming, in two windows.
	curB, err := p.Cursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]Value
	for !curB.Done() {
		n, err := curB.Stream(ctx, int(total/2+1), func(row []Value) error {
			streamed = append(streamed, append([]Value(nil), row...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}

	if int64(len(paged)) != total || fmt.Sprint(paged) != fmt.Sprint(streamed) {
		t.Fatalf("paged %d rows, streamed %d rows, equal=%v",
			len(paged), len(streamed), fmt.Sprint(paged) == fmt.Sprint(streamed))
	}
	if !curB.Done() || curB.Pos() != total {
		t.Fatalf("stream cursor state = (done=%v, pos=%d), want (true, %d)", curB.Done(), curB.Pos(), total)
	}
	if err := curA.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := curA.Next(ctx, 1); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("closed cursor: %v, want ErrNotPrepared", err)
	}
}

func TestLoadThenRegister(t *testing.T) {
	ctx := context.Background()
	c, _ := testServer(t, 50, 4)
	loaded, err := c.Load(ctx, "T", [][]Value{{1, 2}, {3, 4}})
	if err != nil || loaded != 2 {
		t.Fatalf("load = (%d, %v)", loaded, err)
	}
	p, err := c.Register(ctx, "t", Spec{Query: "Q(a, b) :- T(a, b)", Order: "a, b"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Info.Total != 2 {
		t.Fatalf("total = %d, want 2", p.Info.Total)
	}
	rows, err := p.Range(ctx, 0, 2)
	if err != nil || fmt.Sprint(rows) != "[[1 2] [3 4]]" {
		t.Fatalf("rows = (%v, %v)", rows, err)
	}
}
