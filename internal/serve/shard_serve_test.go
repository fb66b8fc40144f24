package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/workload"
)

// TestShardedEndpointsMatchUnsharded drives /access, /range, and
// /count with shards set and cross-checks every byte of the answers
// against the unsharded responses.
func TestShardedEndpointsMatchUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, in := workload.TwoPath(rng, 400, 48, 0.4)
	e := engine.New(in, engine.Options{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	base := api.Spec{Query: twoPath, Order: "x, y, z"}
	sharded := base
	sharded.Shards = 3

	var plain, shard api.AccessResponse
	ks := []int64{0, 1, 5, 17, 1 << 40}
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{Spec: base, AccessRequest: api.AccessRequest{Ks: ks}}, &plain)
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{Spec: sharded, AccessRequest: api.AccessRequest{Ks: ks}}, &shard)
	if shard.Shards != 3 || shard.ShardBy == "" || shard.ShardNote != "" {
		t.Fatalf("shard echo = %+v, want 3 shards, a variable, no note", shard.ShardEcho)
	}
	if plain.Shards != 0 {
		t.Fatalf("unsharded response echoes shards=%d", plain.Shards)
	}
	if plain.Total != shard.Total || plain.Mode != shard.Mode {
		t.Fatalf("plain (%d, %s) vs sharded (%d, %s)", plain.Total, plain.Mode, shard.Total, shard.Mode)
	}
	for i := range plain.Answers {
		pa, sa := plain.Answers[i], shard.Answers[i]
		if pa.Err != sa.Err || len(pa.Tuple) != len(sa.Tuple) {
			t.Fatalf("k=%d: %+v vs %+v", pa.K, pa, sa)
		}
		for j := range pa.Tuple {
			if pa.Tuple[j] != sa.Tuple[j] {
				t.Fatalf("k=%d: tuples %v vs %v", pa.K, sa.Tuple, pa.Tuple)
			}
		}
	}

	var rp, rs api.RangeResponse
	post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{Spec: base, RangeRequest: api.RangeRequest{K0: 3, K1: 40}}, &rp)
	post(t, srv, "/v1/instance/range", api.InstanceRangeRequest{Spec: sharded, RangeRequest: api.RangeRequest{K0: 3, K1: 40}}, &rs)
	if rs.Shards != 3 {
		t.Fatalf("range shard echo = %+v", rs.ShardEcho)
	}
	if len(rp.Tuples) != len(rs.Tuples) {
		t.Fatalf("range lengths %d vs %d", len(rp.Tuples), len(rs.Tuples))
	}
	for i := range rp.Tuples {
		for j := range rp.Tuples[i] {
			if rp.Tuples[i][j] != rs.Tuples[i][j] {
				t.Fatalf("range row %d: %v vs %v", i, rs.Tuples[i], rp.Tuples[i])
			}
		}
	}

	var cp, cs api.CountResponse
	post(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath}, &cp)
	post(t, srv, "/v1/instance/count", api.CountRequest{Query: twoPath, Shards: 4}, &cs)
	if cp.Count != cs.Count {
		t.Fatalf("count %d vs sharded %d", cp.Count, cs.Count)
	}
	if cp.Shards != 0 || cs.Shards != 4 || cs.ShardBy == "" {
		t.Fatalf("count shard echo: plain %+v, sharded %+v", cp.ShardEcho, cs.ShardEcho)
	}

	// Unshardable query: the response carries the fallback note.
	selfjoin := api.Spec{Query: "Q(x, y, z) :- R(x, y), R(y, z)", Shards: 2}
	var fb api.AccessResponse
	post(t, srv, "/v1/instance/access", api.InstanceAccessRequest{Spec: selfjoin, AccessRequest: api.AccessRequest{Ks: []int64{0}}}, &fb)
	if fb.Shards != 0 || fb.ShardNote == "" {
		t.Fatalf("fallback echo = %+v, want a shard_note", fb.ShardEcho)
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
		{"bad shard_by", "/v1/instance/access", `{"query": "Q(x, y) :- R(x, y)", "shards": 2, "shard_by": "zzz", "ks": [0]}`, http.StatusBadRequest},
		{"load without relation", "/v1/instance/load", `{"rows": [[1, 2]]}`, http.StatusBadRequest},
		{"load arity mismatch", "/v1/instance/load", `{"relation": "R", "rows": [[1, 2, 3]]}`, http.StatusBadRequest},
		{"range too wide", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "k0": 0, "k1": 99999999}`, http.StatusBadRequest},
		{"range out of bounds", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "k0": 0, "k1": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"sharded range out of bounds", "/v1/instance/range", `{"query": "Q(x, y) :- R(x, y)", "shards": 2, "k0": 0, "k1": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"select out of bounds", "/v1/instance/select", `{"query": "Q(x, y) :- R(x, y)", "k": 1000}`, http.StatusRequestedRangeNotSatisfiable},
		{"bad classify problem", "/v1/instance/classify", `{"query": "Q(x, y) :- R(x, y)", "problem": "nonsense"}`, http.StatusBadRequest},
		{"bad count query", "/v1/instance/count", `{"query": "broken("}`, http.StatusBadRequest},
		{"bad count shard_by", "/v1/instance/count", `{"query": "Q(x, y) :- R(x, y)", "shards": 2, "shard_by": "zzz"}`, http.StatusBadRequest},
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
