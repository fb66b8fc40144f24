// Command serve runs the ranked direct-access engine as an HTTP/JSON
// service: load an instance (from TSV files at startup and/or POST
// /v1/instance/load at runtime), then serve the /v1 prepared-query API
// (register a query once, probe and stream it by name — see
// internal/serve) plus the one-shot endpoints under /v1/instance.
// Access structures are cached across requests, so a repeated (query,
// order) pair skips its O(n log n) preprocessing.
//
// Usage:
//
//	serve -addr :8080 -data /tmp/data -cache 128 -workers 0 \
//	      -snapshot-dir /var/lib/ra -checkpoint-every 5m \
//	      -request-timeout 2s -rate-limit 100 -max-concurrent 64
//
// Every <data>/<Name>.tsv file (as written by ra gen) is loaded as
// relation <Name>. With -workers 1 preprocessing runs serially; 0 uses
// all cores. SIGINT/SIGTERM drain in-flight requests before exiting.
//
// The overload controls (-request-timeout, -rate-limit/-rate-burst,
// -max-concurrent/-max-queue, -stream-write-timeout, -max-body) are all
// off or at permissive defaults unless set; shed requests answer
// 429/503 with Retry-After, and /healthz (liveness) plus /readyz
// (readiness: WAL healthy, rebuild backlog below the hard limit,
// snapshot directory writable) report the serving state.
//
// Observability: GET /metrics serves every engine and serving counter
// in the Prometheus text format (scrape it, or point cmd/dash at the
// server) and GET /v1/stats the same counters as typed JSON, both off
// one snapshot; -log-requests emits one JSON log record per request to
// stderr, with request ids that thread through to engine build and
// rebuild events; -ops-addr starts a second, private listener carrying
// /debug/pprof plus /metrics and the health probes — keep it on
// loopback or an internal interface, never the public address.
//
// Distributed tracing (-trace-rate): every request runs under a
// request-scoped span that propagates HTTP → coordinator → RPC →
// shard via W3C traceparent headers and the RARC v2 wire field, so one
// trace id stitches a scatter-gather across every node that served it.
// Traces are kept when head-sampled at -trace-rate, on any error, or
// when slower than -trace-slow, and served from an in-memory ring at
// GET /debug/traces on the ops listener (list, ?sort=dur, ?id=<trace>
// waterfall). Histogram exemplars link /metrics latency buckets to
// stored trace ids. -trace-export-url additionally POSTs finished
// traces as OTLP/JSON to a collector.
//
// With -snapshot-dir the server warm-starts from the newest snapshot in
// the directory (instance, built structures, and prepared-query
// registry restored in milliseconds, structures mapped zero-copy; -data
// is ignored on a warm start) and exposes the /v1/snapshots endpoints.
// -checkpoint-every additionally checkpoints in the background whenever
// the instance changed; a final checkpoint runs during graceful
// shutdown, after in-flight requests and any in-flight background
// checkpoint have drained, so a clean restart loses nothing.
//
// Distributed serving (-role): the default role "single" serves its
// own instance. "-role=shard -rpc-addr :9101" additionally answers the
// internal/rpc shard protocol on the given address, serving the shard
// subsets coordinators ask it to build (the HTTP API stays up — that
// is how a shard node is loaded with data). "-role=coordinator
// -cluster cluster.json" owns no data at all: every prepared query is
// planned locally and scatter-gathered over the cluster's shard nodes,
// byte-identical to single-node answers; /readyz reflects probed node
// health, and /metrics carries per-peer RPC series. See README
// "Distributed serving" for the cluster config format.
//
// Example session:
//
//	curl -s localhost:8080/v1/queries -d '{
//	  "name": "by_xyz",
//	  "query": "Q(x, y, z) :- R(x, y), S(y, z)",
//	  "order": "x, y desc, z"
//	}'
//	curl -s localhost:8080/v1/queries/by_xyz/access -d '{"ks": [0, 1000]}'
//	curl -s -X POST localhost:8080/v1/snapshots
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"rankedaccess/internal/serve"
)

// main is flags → serve.RunConfig → serve.Run → exit code: everything a
// role is assembled from, and the order it drains, checkpoints and
// closes in, lives in internal/serve (run.go).
func main() {
	cfg := serve.Flags(flag.CommandLine)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// Restore default signal handling once the first signal has started
	// the drain: a second ^C kills immediately.
	context.AfterFunc(ctx, stop)
	if err := serve.Run(ctx, *cfg); err != nil {
		log.Fatal(err)
	}
}
