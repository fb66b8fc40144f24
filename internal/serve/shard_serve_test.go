package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/workload"
)

// TestShardedEndpointsMatchUnsharded drives /access, /range and /count
// with shard fields set — a count, a partition variable, one that names
// no variable, and a self-join nothing could partition — and requires
// the bare request's bytes: a local engine accepts the fields, ignores
// them and echoes none.
func TestShardedEndpointsMatchUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, in := workload.TwoPath(rng, 400, 48, 0.4)
	srv := httptest.NewServer(NewHandler(engine.New(in, engine.Options{})))
	defer srv.Close()
	body := func(path, req string) string {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s (%v)", path, req, resp.StatusCode, b, err)
		}
		return string(b)
	}
	spec := `"query":"` + twoPath + `","order":"x, y, z"`
	for _, tc := range []struct{ path, spec, rest string }{
		{"/v1/instance/access", spec, `,"ks":[0,1,5,17,1099511627776]`},
		{"/v1/instance/range", spec, `,"k0":3,"k1":40`},
		{"/v1/instance/count", `"query":"` + twoPath + `"`, ``},
		{"/v1/instance/access", `"query":"Q(x, y, z) :- R(x, y), R(y, z)"`, `,"ks":[0]`},
	} {
		want := body(tc.path, "{"+tc.spec+tc.rest+"}")
		for _, sh := range []string{`,"shards":3`, `,"shards":4,"shard_by":"y"`, `,"shards":2,"shard_by":"zzz"`} {
			if got := body(tc.path, "{"+tc.spec+sh+tc.rest+"}"); got != want {
				t.Fatalf("POST %s with %s:\n got %s\nwant %s", tc.path, sh, got, want)
			}
		}
	}
}

// TestErrorStatusAndBody audits every handler's error paths: the
// status code must be set before any body byte (a JSON error body with
// the right Content-Type proves the header was not committed early) and
// the body must be a structured {"error": ...} object.
func TestErrorStatusAndBody(t *testing.T) {
	e := engine.New(nil, engine.Options{})
	if err := e.AddRows("R", [][]int64{{1, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("S", [][]int64{{2, 1}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"malformed json", "/v1/instance/access", `{"query": `, http.StatusBadRequest},
		{"unknown field", "/v1/instance/access", `{"query": "Q(x) :- R(x, y)", "bogus": 1}`, http.StatusBadRequest},
		{"bad query", "/v1/instance/access", `{"query": "not a query", "ks": [0]}`, http.StatusBadRequest},
		{"bad order", "/v1/instance/access", `{"query": "Q(x, y) :- R(x, y)", "order": "nope", "ks": [0]}`, http.StatusBadRequest},
		{"load without relation", "/v1/instance/load", `{"rows": [[1, 2]]}`, http.StatusBadRequest},
		{"load arity mismatch", "/v1/instance/load", `{"relation": "R", "rows": [[1, 2, 3]]}`, http.StatusBadRequest},
		{"range too wide", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "k0": 0, "k1": 99999999}`, http.StatusBadRequest},
		{"range out of bounds", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "k0": 0, "k1": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"sharded range out of bounds", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "shards": 2, "k0": 0, "k1": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"select out of bounds", "/v1/instance/select", `{"query": "Q(x, y) :- R(x, y)", "k": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"bad classify problem", "/v1/instance/classify", `{"query": "Q(x, y) :- R(x, y)", "problem": "nonsense"}`, http.StatusBadRequest},
		{"bad count query", "/v1/instance/count", `{"query": "broken("}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var body api.Error
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body.Error == "" {
				t.Fatal("error body has no error message")
			}
		})
	}
}
