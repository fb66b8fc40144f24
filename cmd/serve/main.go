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
// Every <data>/<Name>.tsv file (as written by cmd/gen) is loaded as
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
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rankedaccess/internal/cluster"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/par"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/serve"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/trace"
)

// drainTimeout bounds graceful shutdown: in-flight requests (including
// long NDJSON streams) get this long to finish after SIGINT/SIGTERM
// before the listener is torn down hard.
const drainTimeout = 15 * time.Second

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data", "", "directory of <Relation>.tsv files to preload")
		cache   = flag.Int("cache", engine.DefaultCacheSize, "max cached access structures")
		workers = flag.Int("workers", 0, "preprocessing worker bound (0 = all cores)")
		snapDir = flag.String("snapshot-dir", "", "snapshot directory: warm-start from the newest snapshot and enable /v1/snapshots")
		ckEvery = flag.Duration("checkpoint-every", 0, "background checkpoint interval (0 disables; requires -snapshot-dir)")

		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline, queue wait included; exceeded requests get 503 + Retry-After (0 disables)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client requests/sec token-bucket rate; over-budget clients get 429 + Retry-After (0 disables)")
		rateBurst   = flag.Int("rate-burst", 0, "per-client burst on top of -rate-limit (min 1)")
		maxConc     = flag.Int("max-concurrent", 0, "max requests running at once; excess waits up to -max-queue then sheds 503 (0 disables)")
		maxQueue    = flag.Int("max-queue", -1, "max requests waiting for a slot (-1 = -max-concurrent)")
		streamWrite = flag.Duration("stream-write-timeout", 0, "per-chunk NDJSON write deadline so stalled readers cannot pin an epoch (0 = 30s, negative disables)")
		maxBody     = flag.Int64("max-body", 0, "request body cap in bytes, 413 beyond it (0 = 256 MiB)")

		opsAddr = flag.String("ops-addr", "", "operator listener (pprof + /metrics + health probes + /debug/traces) on a separate, private address; off when empty")

		traceRate   = flag.Float64("trace-rate", -1, "head-sampling rate in [0,1]; errors and the slow tail are always kept; negative disables tracing entirely")
		traceSlow   = flag.Duration("trace-slow", 0, "always keep traces slower than this (0 = 250ms)")
		traceBuffer = flag.Int("trace-buffer", 0, "in-memory trace ring capacity served at /debug/traces (0 = 1024)")
		traceExport = flag.String("trace-export-url", "", "POST finished traces as OTLP/JSON to this collector URL (off when empty)")
		logRequests = flag.Bool("log-requests", false, "emit one JSON log record per request to stderr (request ids propagate into engine events)")
		logMaxPS    = flag.Int("log-max-per-sec", 0, "request-log records kept per second before sampling kicks in (0 = 500, negative disables sampling)")

		role        = flag.String("role", "single", "serving role: single, shard (also answer the shard RPC protocol on -rpc-addr), or coordinator (own no data; scatter-gather over -cluster)")
		clusterPath = flag.String("cluster", "", "cluster config JSON (required for -role=coordinator)")
		rpcAddr     = flag.String("rpc-addr", "", "shard RPC listen address (required for -role=shard)")
	)
	flag.Parse()
	par.SetLimit(*workers)
	if *ckEvery > 0 && *snapDir == "" {
		log.Fatal("serve: -checkpoint-every requires -snapshot-dir")
	}
	switch *role {
	case "single":
		if *rpcAddr != "" {
			log.Fatal("serve: -rpc-addr requires -role=shard")
		}
		if *clusterPath != "" {
			log.Fatal("serve: -cluster requires -role=coordinator")
		}
	case "shard":
		if *rpcAddr == "" {
			log.Fatal("serve: -role=shard requires -rpc-addr")
		}
	case "coordinator":
		if *clusterPath == "" {
			log.Fatal("serve: -role=coordinator requires -cluster")
		}
		if *dataDir != "" || *snapDir != "" {
			log.Fatal("serve: a coordinator owns no data; -data and -snapshot-dir are for shard or single roles")
		}
	default:
		log.Fatalf("serve: unknown -role %q (single, shard, coordinator)", *role)
	}

	// One structured logger feeds both layers: the serve middleware's
	// per-request records and the engine's build/rebuild/WAL events,
	// joined by the request ids the middleware propagates via context.
	var appLog *slog.Logger
	if *logRequests {
		appLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	// One tracer serves the whole process: the HTTP middleware roots
	// (or adopts) request spans, the coordinator's scatter-gather and
	// RPC clients continue them over the wire, and a shard role's RPC
	// server + node continue traces arriving from coordinators.
	var tracer *trace.Tracer
	if *traceRate >= 0 {
		if *traceRate > 1 {
			log.Fatal("serve: -trace-rate must be in [0, 1]")
		}
		topts := trace.Options{Rate: *traceRate, Slow: *traceSlow, Buffer: *traceBuffer}
		if *traceExport != "" {
			topts.Export = trace.NewExporter(*traceExport, "rankedaccess-"+*role)
		}
		tracer = trace.New(topts)
		log.Printf("serve: tracing on (rate %g, slow %s); explorer at /debug/traces on the ops listener", *traceRate, *traceSlow)
		if *opsAddr == "" {
			log.Printf("serve: warning: tracing without -ops-addr keeps traces but exposes no /debug/traces listener")
		}
	} else if *traceExport != "" {
		log.Fatal("serve: -trace-export-url requires -trace-rate >= 0")
	}

	var e *engine.Engine
	var coord *cluster.Coordinator
	warm := false
	if *snapDir != "" {
		// First boot against a fresh directory: the WAL is created inside
		// it immediately, so the directory itself must exist up front.
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			log.Fatalf("serve: snapshot dir: %v", err)
		}
		snapshot.CleanTmp(*snapDir) // sweep temp files a crashed checkpoint stranded
		var err error
		e, warm, err = engine.Open(*snapDir, engine.Options{CacheSize: *cache, Logger: appLog})
		if err != nil {
			log.Fatalf("serve: warm start: %v", err)
		}
		if warm {
			st := e.Stats()
			log.Printf("serve: warm start from %s: %d tuples, %d structures mapped, version %d",
				*snapDir, st.Tuples, st.WarmStructures, st.Version)
		}
	} else {
		eopts := engine.Options{CacheSize: *cache, Logger: appLog}
		if *role == "coordinator" {
			cfg, err := cluster.Load(*clusterPath)
			if err != nil {
				log.Fatalf("serve: %v", err)
			}
			coord = cluster.NewCoordinator(cfg, rpc.Options{})
			coord.SetTracer(tracer)
			eopts.Remote = coord
			log.Printf("serve: coordinator over %d shards across %d nodes", cfg.Shards, len(cfg.Nodes))
		}
		e = engine.New(database.NewInstance(), eopts)
	}
	switch {
	case *dataDir != "" && warm:
		log.Printf("serve: warm start restored the instance; ignoring -data %s", *dataDir)
	case *dataDir != "":
		loaded := 0
		var err error
		e.Mutate(func(in *database.Instance) {
			loaded, err = loadDir(in, *dataDir)
		})
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("serve: loaded %d relations from %s", loaded, *dataDir)
	}

	// Role plumbing into the shared HTTP surface: a shard node's RPC
	// server counters and a coordinator's per-peer client metrics land
	// on the same /metrics endpoint, and a coordinator's readiness
	// follows its probed view of the cluster.
	var rsrv *rpc.Server
	var extraMetrics func(*metrics.Registry)
	var readyCheck func() []string
	switch *role {
	case "shard":
		node := cluster.NewNode(e)
		node.SetTracer(tracer)
		rsrv = rpc.NewServer(node)
		rsrv.SetTracer(tracer)
		extraMetrics = rsrv.Instrument
	case "coordinator":
		extraMetrics = coord.RegisterMetrics
		readyCheck = coord.ReadyReasons
	}

	api := serve.NewHandlerWith(e, serve.Config{
		SnapshotDir:        *snapDir,
		RequestTimeout:     *reqTimeout,
		MaxBodyBytes:       *maxBody,
		RatePerSec:         *rateLimit,
		RateBurst:          *rateBurst,
		MaxConcurrent:      *maxConc,
		MaxQueue:           *maxQueue,
		StreamWriteTimeout: *streamWrite,
		RequestLog:         appLog,
		LogMaxPerSec:       *logMaxPS,
		ReadyCheck:         readyCheck,
		ExtraMetrics:       extraMetrics,
		Tracer:             tracer,
	})

	if rsrv != nil {
		lis, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatalf("serve: rpc listen: %v", err)
		}
		go func() {
			log.Printf("serve: shard RPC listener on %s", lis.Addr())
			if err := rsrv.Serve(lis); err != nil {
				log.Printf("serve: rpc: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: api,
		// Bound slow-header clients (slowloris) and idle keep-alive
		// connections; no overall write timeout, since NDJSON cursor
		// streams are legitimately long-lived.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The ops listener carries pprof (plus /metrics and the health
	// probes) on its own, private address — it never shares the public
	// port, so no client can reach a profile endpoint. It serves until
	// the process exits; profiles during drain are exactly when an
	// operator wants them.
	if *opsAddr != "" {
		ops := &http.Server{
			Addr:              *opsAddr,
			Handler:           serve.NewOpsHandler(api),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("serve: ops listener (pprof, metrics) on %s", *opsAddr)
			if err := ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("serve: ops listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background checkpointer. lastCk tracks the last version durably on
	// disk (the warm-start version counts), so ticks and the final
	// shutdown checkpoint skip when nothing changed.
	var lastCk atomic.Uint64
	lastCk.Store(^uint64(0))
	if warm {
		lastCk.Store(e.Version())
	}
	checkpoint := func(why string) {
		if e.Version() == lastCk.Load() {
			return
		}
		info, err := e.Checkpoint(*snapDir)
		if err != nil {
			log.Printf("serve: %s checkpoint: %v", why, err)
			return
		}
		lastCk.Store(info.Version)
		log.Printf("serve: %s checkpoint %s: %d bytes, %d structures (version %d)",
			why, info.Name, info.Bytes, info.Structures, info.Version)
	}
	ckCtx, ckStop := context.WithCancel(context.Background())
	var ckWG sync.WaitGroup
	if *ckEvery > 0 {
		ckWG.Add(1)
		go func() {
			defer ckWG.Done()
			t := time.NewTicker(*ckEvery)
			defer t.Stop()
			for {
				select {
				case <-ckCtx.Done():
					return
				case <-t.C:
					checkpoint("background")
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serve: %d tuples loaded, listening on %s", e.Stats().Tuples, *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		log.Printf("serve: signal received, draining in-flight requests (up to %s)", drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		// A request that outlives the drain window (one stalled NDJSON
		// reader suffices) is cut off, not waited for — and costs the exit
		// code, never the flush below.
		drainErr := srv.Shutdown(shutdownCtx)
		if drainErr != nil {
			log.Printf("serve: shutdown: %v; closing the remaining connections", drainErr)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
		// Requests are drained; flush durability before exiting. The
		// ticker goroutine is stopped first and awaited, so an in-flight
		// background checkpoint completes (its temp-file write/rename is
		// atomic and self-cleaning) rather than being torn mid-write,
		// and the final checkpoint below cannot race it.
		ckStop()
		ckWG.Wait()
		if *snapDir != "" {
			checkpoint("shutdown")
		}
		// Stop answering shard RPCs only after HTTP drained: in-flight
		// coordinator scatters against this node get to finish.
		if rsrv != nil {
			_ = rsrv.Close()
		}
		if coord != nil {
			coord.Close()
		}
		if tracer != nil {
			tracer.Close()
		}
		if drainErr != nil {
			os.Exit(1)
		}
		log.Printf("serve: drained, bye")
	}
}

// loadDir loads every *.tsv file in dir as the relation named by its
// base name, returning how many relations were loaded.
func loadDir(in *database.Instance, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".tsv") {
			continue
		}
		name := strings.TrimSuffix(ent.Name(), ".tsv")
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			return loaded, err
		}
		err = in.ReadRelation(name, f)
		f.Close()
		if err != nil {
			return loaded, err
		}
		loaded++
	}
	if loaded == 0 {
		return 0, fmt.Errorf("no .tsv files in %s", dir)
	}
	return loaded, nil
}
