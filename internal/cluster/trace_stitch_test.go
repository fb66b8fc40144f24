package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rankedaccess/internal/metrics"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/trace"
)

// TestTraceStitchesAcrossCluster is the end-to-end tracing contract:
// one client request through an HTTP coordinator over two shard nodes
// produces ONE trace — rooted at the coordinator's HTTP server span,
// with at least one rank-round span per peer (the request prepares its
// spec on the join variable y, so a priced splitter fill's rounds are
// its own and reach both nodes; the probes behind the table may need
// none, and on the leading variable the fill needs none) and exactly
// one per peer a
// round reaches, continued on every shard node (server +
// per-shard engine spans under the same trace id), visible in each
// process's /debug/traces, and linked from a /metrics latency exemplar
// on the coordinator.
func TestTraceStitchesAcrossCluster(t *testing.T) {
	const p = 4
	tc := startCluster(t, 2, p, nil)

	// Coordinator samples everything; the nodes sample nothing on
	// their own — they may only keep traces via the propagated
	// sampled flag, which is exactly what the stitch must carry.
	coordTracer := trace.New(trace.Options{Rate: 1, Buffer: 64})
	tc.coord.SetTracer(coordTracer)
	nodeTracers := make([]*trace.Tracer, len(tc.nodes))
	for i := range tc.nodes {
		nodeTracers[i] = trace.New(trace.Options{Rate: 0, Buffer: 64})
		tc.nodes[i].SetTracer(nodeTracers[i])
		tc.servers[i].SetTracer(nodeTracers[i])
	}

	api := serve.NewHandlerWith(tc.ce, serve.Config{Tracer: coordTracer})
	ts := httptest.NewServer(api)
	defer ts.Close()

	body := strings.NewReader(`{"query": "` + twoPath + `", "order": "x, y, z", "shard_by": "y", "ks": [0, 17, 100]}`)
	resp, err := http.Post(ts.URL+"/v1/instance/access", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("access: %d", resp.StatusCode)
	}

	// --- coordinator side: the request's trace is the one rooted at
	// the HTTP server span (background peer health probes are traced
	// too — they root their own, separate traces). ---
	var co *trace.Trace
	for _, tr := range coordTracer.Store().Snapshot() {
		if tr.Root().Name == "http.instance_access" {
			if co != nil {
				t.Fatalf("two traces rooted at http.instance_access: %s and %s", co.ID, tr.ID)
			}
			co = tr
		}
	}
	if co == nil {
		t.Fatalf("no trace rooted at http.instance_access among %d stored", coordTracer.Store().Len())
	}
	if root := co.Root(); root.Kind != trace.KindServer {
		t.Fatalf("coordinator root span: %q kind %v", root.Name, root.Kind)
	}
	// ≥1 rank-round span per peer, parented inside this trace: the
	// fill's at least, whatever the three probes needed on top.
	// Exactly one span per peer a round reaches — a round's access and
	// rank calls to one node share it — and it says how many pivots the
	// round priced.
	roundsByPeer := map[string]map[int64]int{}
	for _, sp := range co.Spans {
		if sp.Name != "cluster.rank_round" {
			continue
		}
		var peer string
		round, pivots := int64(-1), int64(0)
		for _, a := range sp.Attrs {
			switch a.Key {
			case "peer":
				peer = a.Str
			case "round_seq":
				round = a.Num
			case "pivots":
				pivots = a.Num
			}
		}
		if round < 1 || pivots < 1 {
			t.Fatalf("cluster.rank_round span of %s lacks round_seq/pivots: %+v", peer, sp.Attrs)
		}
		if roundsByPeer[peer] == nil {
			roundsByPeer[peer] = map[int64]int{}
		}
		roundsByPeer[peer][round]++
	}
	for _, addr := range tc.addrs {
		if len(roundsByPeer[addr]) == 0 {
			t.Fatalf("peer %s has no rank round: %v", addr, roundsByPeer)
		}
		for round, n := range roundsByPeer[addr] {
			if n != 1 {
				t.Fatalf("round %d: %d spans for peer %s (all: %v)", round, n, addr, roundsByPeer)
			}
		}
	}

	// --- shard-node side: same trace id on every node, with server
	// and engine spans; nodes commit after responding, so poll. ---
	for i, nt := range nodeTracers {
		var nodeTrace *trace.Trace
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if nodeTrace = nt.Store().Get(co.ID); nodeTrace != nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if nodeTrace == nil {
			t.Fatalf("node %d never stored trace %s", i, co.ID)
		}
		var hasServer, hasEngine bool
		for _, sp := range nodeTrace.Spans {
			if strings.HasPrefix(sp.Name, "rarc.server.") && sp.Kind == trace.KindServer {
				hasServer = true
			}
			if strings.HasPrefix(sp.Name, "node.") {
				hasEngine = true
			}
		}
		if !hasServer || !hasEngine {
			t.Fatalf("node %d trace lacks spans (server=%v engine=%v): %+v", i, hasServer, hasEngine, nodeTrace.Spans)
		}
	}

	// --- explorer surfaces: list + waterfall on every store. ---
	for i, st := range append([]*trace.Store{coordTracer.Store()}, nodeTracers[0].Store(), nodeTracers[1].Store()) {
		h := st.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+co.ID.String(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("store %d waterfall for %s: %d %s", i, co.ID, rec.Code, rec.Body)
		}
		var wf struct {
			Spans []json.RawMessage `json:"spans"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &wf); err != nil || len(wf.Spans) == 0 {
			t.Fatalf("store %d waterfall unusable (err=%v): %s", i, err, rec.Body)
		}
	}

	// --- exemplar closes the loop: the /metrics latency bucket names
	// a trace id that the coordinator's store actually holds. ---
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	found := false
	for _, sm := range samples {
		if sm.Name != "ra_http_request_duration_seconds_bucket" || sm.Exemplar == nil {
			continue
		}
		if sm.Label("endpoint") != "instance_access" {
			continue
		}
		id, ok := trace.ParseTraceID(sm.Exemplar.TraceID())
		if !ok {
			t.Fatalf("exemplar carries malformed trace id %q", sm.Exemplar.TraceID())
		}
		if coordTracer.Store().Get(id) == nil {
			t.Fatalf("exemplar trace %s not in the coordinator store", id)
		}
		found = true
	}
	if !found {
		t.Fatal("no latency exemplar on the instance_access endpoint")
	}
}
