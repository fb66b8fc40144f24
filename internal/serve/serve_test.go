package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

const twoPath = "Q(x, y, z) :- R(x, y), S(y, z)"

func post(t *testing.T, srv *httptest.Server, path string, body any, into any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp
}

// TestAccessEndToEnd drives POST /v1/instance/access against a generated instance
// and cross-checks every answer with the library.
func TestAccessEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q, in := workload.TwoPath(rng, 512, 64, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Golden structure straight from the engine.
	h, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	total := h.Total()
	if total == 0 {
		t.Fatal("empty join")
	}

	ks := []int64{0, total / 2, total - 1, total + 5}
	var resp api.AccessResponse
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		AccessRequest: api.AccessRequest{Ks: ks},
	}, &resp)

	if resp.Total != total || !resp.Tractable || resp.Mode != string(engine.ModeLayeredLex) {
		t.Fatalf("response header = %+v, want total %d tractable layered-lex", resp, total)
	}
	for i, k := range ks[:3] {
		a, err := h.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		want := h.HeadTuple(a)
		got := resp.Answers[i].Tuple
		if len(got) != len(want) {
			t.Fatalf("k=%d: tuple %v, want %v", k, got, want)
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("k=%d: tuple %v, want %v", k, got, want)
			}
		}
	}
	if resp.Answers[3].Err != "out of bound" {
		t.Fatalf("out-of-range probe: %+v", resp.Answers[3])
	}
	_ = q
}

func TestLoadThenQueryLifecycle(t *testing.T) {
	e := engine.New(database.NewInstance(), engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var lr api.LoadResponse
	post(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "R", Rows: [][]values.Value{{1, 5}, {1, 2}, {6, 2}}}, &lr)
	if lr.Loaded != 3 || lr.Version != 1 {
		t.Fatalf("load R = %+v", lr)
	}
	post(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "S", Rows: [][]values.Value{{5, 3}, {5, 4}, {5, 6}, {2, 5}}}, &lr)
	if lr.Version != 2 {
		t.Fatalf("load S = %+v", lr)
	}

	var cr api.CountResponse
	post(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath}, &cr)
	if cr.Count != 5 {
		t.Fatalf("count = %d, want 5", cr.Count)
	}

	var ar api.AccessResponse
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		AccessRequest: api.AccessRequest{Ks: []int64{0}},
	}, &ar)
	if ar.Total != 5 || len(ar.Answers) != 1 || ar.Answers[0].Err != "" {
		t.Fatalf("access = %+v", ar)
	}
	first := ar.Answers[0].Tuple

	var sr api.SelectResponse
	post(t, srv, "/v1/instance/select", api.InstanceSelectRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		SelectRequest: api.SelectRequest{K: 0},
	}, &sr)
	for p := range first {
		if sr.Tuple[p] != first[p] {
			t.Fatalf("select %v != access %v", sr.Tuple, first)
		}
	}

	// Loading more rows publishes a new version: the same access now
	// sees the new answers (served by a delta overlay, not a rebuild).
	post(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "R", Rows: [][]values.Value{{7, 5}}}, &lr)
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: twoPath, Order: "x, y, z"},
		AccessRequest: api.AccessRequest{Ks: []int64{0}},
	}, &ar)
	if ar.Total != 8 {
		t.Fatalf("total after load = %d, want 8", ar.Total)
	}

	st := getStats(t, srv)
	if st.Tuples != 8 || st.Version != 3 || st.CacheMisses < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WALBatches != 3 || st.DeltaEpochs < 1 {
		t.Fatalf("write-path stats = %+v", st)
	}
}

func TestClassifyAndSumEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	_, in := workload.TwoPath(rng, 128, 16, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var cl api.Classification
	post(t, srv, "/v1/instance/classify", api.InstanceClassifyRequest{
		Spec:            api.Spec{Query: twoPath, Order: "x, z, y"},
		ClassifyRequest: api.ClassifyRequest{Problem: engine.ProblemDirectAccessLex},
	}, &cl)
	if cl.Tractable {
		t.Fatalf("⟨x,z,y⟩ classified tractable: %+v", cl)
	}
	if len(cl.Trio) == 0 {
		t.Fatalf("intractable verdict lacks a disruptive-trio certificate: %+v", cl)
	}

	// SUM access over a full single-atom query is tractable.
	var ar api.AccessResponse
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{
		Spec:          api.Spec{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}},
		AccessRequest: api.AccessRequest{Ks: []int64{0, 1}},
	}, &ar)
	if ar.Mode != string(engine.ModeSum) || !ar.Tractable {
		t.Fatalf("sum access = %+v", ar)
	}
	if len(ar.Answers) != 2 || ar.Answers[0].Err != "" || ar.Answers[1].Err != "" {
		t.Fatalf("sum answers = %+v", ar.Answers)
	}
	w0 := ar.Answers[0].Tuple[0] + ar.Answers[0].Tuple[1]
	w1 := ar.Answers[1].Tuple[0] + ar.Answers[1].Tuple[1]
	if w0 > w1 {
		t.Fatalf("sum order violated: %d then %d", w0, w1)
	}
	_ = order.Lex{}
}

func TestBadRequests(t *testing.T) {
	e := engine.New(database.NewInstance(), engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Establish T with arity 2 so the arity-mismatch-with-existing case
	// below is exercised.
	if resp := post(t, srv, "/v1/instance/load", api.LoadRequest{Relation: "T", Rows: [][]values.Value{{1, 2}}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding T: status %d", resp.StatusCode)
	}

	cases := []struct {
		path string
		body any
	}{
		{"/v1/instance/access", api.InstanceAccessRequest{Spec: api.Spec{Query: "not a query"}}},
		{"/v1/instance/access", api.InstanceAccessRequest{Spec: api.Spec{Query: twoPath, Order: "nosuchvar"}}},
		{"/v1/instance/count", api.CountRequest{Query: ""}},
		{"/v1/instance/load", api.LoadRequest{Relation: ""}},
		{"/v1/instance/load", api.LoadRequest{Relation: "R", Rows: [][]values.Value{{1}, {1, 2}}}},
		{"/v1/instance/load", api.LoadRequest{Relation: "T", Rows: [][]values.Value{{1, 2, 3}}}}, // arity clash with existing T

		{"/v1/instance/classify", api.InstanceClassifyRequest{Spec: api.Spec{Query: twoPath}, ClassifyRequest: api.ClassifyRequest{Problem: "nonsense"}}},
	}
	for _, c := range cases {
		resp := post(t, srv, c.path, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %+v: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}

	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/v1/instance/access")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/instance/access: status %d, want 405", resp.StatusCode)
	}
}

// TestRangeEndpoint drives POST /v1/instance/range and cross-checks the window
// against per-index access.
func TestRangeEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, in := workload.TwoPath(rng, 512, 64, 0.3)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	h, err := e.Prepare(engine.Spec{Query: twoPath, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	total := h.Total()
	if total < 8 {
		t.Fatal("workload too small")
	}
	k0, k1 := total/4, total/4+5

	var rr api.RangeResponse
	post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{
		Spec:         api.Spec{Query: twoPath, Order: "x, y, z"},
		RangeRequest: api.RangeRequest{K0: k0, K1: k1},
	}, &rr)
	if rr.Total != total || rr.K0 != k0 || len(rr.Tuples) != int(k1-k0) {
		t.Fatalf("range response: %+v", rr)
	}
	for i, tu := range rr.Tuples {
		a, err := h.Access(k0 + int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want := h.HeadTuple(a)
		if len(tu) != len(want) {
			t.Fatalf("tuple %d: %v, want %v", i, tu, want)
		}
		for j := range want {
			if tu[j] != want[j] {
				t.Fatalf("tuple %d: %v, want %v", i, tu, want)
			}
		}
	}

	// Out-of-bound window → 416.
	resp := post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{
		Spec:         api.Spec{Query: twoPath, Order: "x, y, z"},
		RangeRequest: api.RangeRequest{K0: total - 1, K1: total + 5},
	}, nil)
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-bound range: status %d, want 416", resp.StatusCode)
	}

	// Oversized window → 400.
	resp = post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{
		Spec:         api.Spec{Query: twoPath, Order: "x, y, z"},
		RangeRequest: api.RangeRequest{K0: 0, K1: maxRange + 1},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized range: status %d, want 400", resp.StatusCode)
	}
}
