package serve

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
	"sync"
	"time"

	"rankedaccess/internal/cluster"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/par"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/trace"
)

// drainTimeout is Run's drain window: in-flight requests (including
// long NDJSON streams) get this long to finish after SIGINT/SIGTERM
// before the remaining connections are torn down hard.
const drainTimeout = 15 * time.Second

// RunConfig is everything cmd/serve decides from its command line: one
// field per flag, no others. Flags declares them with their defaults.
type RunConfig struct {
	Addr            string
	DataDir         string
	Cache           int
	Workers         int
	SnapshotDir     string
	CheckpointEvery time.Duration

	RequestTimeout     time.Duration
	RateLimit          float64
	RateBurst          int
	MaxConcurrent      int
	MaxQueue           int
	StreamWriteTimeout time.Duration
	MaxBody            int64

	OpsAddr string

	TraceRate      float64
	TraceSlow      time.Duration
	TraceBuffer    int
	TraceExportURL string
	LogRequests    bool
	LogMaxPerSec   int

	Role        string
	ClusterPath string
	RPCAddr     string
}

// Flags declares cmd/serve's command line on fs and returns the
// RunConfig fs.Parse fills. Before Parse it holds the defaults, which is
// how an embedding program (or a test) starts from them.
func Flags(fs *flag.FlagSet) *RunConfig {
	c := new(RunConfig)
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.DataDir, "data", "", "directory of <Relation>.tsv files to preload")
	fs.IntVar(&c.Cache, "cache", engine.DefaultCacheSize, "max cached access structures")
	fs.IntVar(&c.Workers, "workers", 0, "preprocessing worker bound (0 = all cores)")
	fs.StringVar(&c.SnapshotDir, "snapshot-dir", "", "snapshot directory: warm-start from the newest snapshot and enable /v1/snapshots")
	fs.DurationVar(&c.CheckpointEvery, "checkpoint-every", 0, "background checkpoint interval (0 disables; requires -snapshot-dir)")

	fs.DurationVar(&c.RequestTimeout, "request-timeout", 0, "per-request deadline, queue wait included; exceeded requests get 503 + Retry-After (0 disables)")
	fs.Float64Var(&c.RateLimit, "rate-limit", 0, "per-client requests/sec token-bucket rate; over-budget clients get 429 + Retry-After (0 disables)")
	fs.IntVar(&c.RateBurst, "rate-burst", 0, "per-client burst on top of -rate-limit (min 1)")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", 0, "max requests running at once; excess waits up to -max-queue then sheds 503 (0 disables)")
	fs.IntVar(&c.MaxQueue, "max-queue", -1, "max requests waiting for a slot (-1 = -max-concurrent)")
	fs.DurationVar(&c.StreamWriteTimeout, "stream-write-timeout", 0, "per-chunk NDJSON write deadline so stalled readers cannot pin an epoch (0 = 30s, negative disables)")
	fs.Int64Var(&c.MaxBody, "max-body", 0, "request body cap in bytes, 413 beyond it (0 = 256 MiB)")

	fs.StringVar(&c.OpsAddr, "ops-addr", "", "operator listener (pprof + /metrics + health probes + /debug/traces) on a separate, private address; off when empty")

	fs.Float64Var(&c.TraceRate, "trace-rate", -1, "head-sampling rate in [0,1]; errors and the slow tail are always kept; negative disables tracing entirely")
	fs.DurationVar(&c.TraceSlow, "trace-slow", 0, "always keep traces slower than this (0 = 250ms)")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", 0, "in-memory trace ring capacity served at /debug/traces (0 = 1024)")
	fs.StringVar(&c.TraceExportURL, "trace-export-url", "", "POST finished traces as OTLP/JSON to this collector URL (off when empty)")
	fs.BoolVar(&c.LogRequests, "log-requests", false, "emit one JSON log record per request to stderr (request ids propagate into engine events)")
	fs.IntVar(&c.LogMaxPerSec, "log-max-per-sec", 0, "request-log records kept per second before sampling kicks in (0 = 500, negative disables sampling)")

	fs.StringVar(&c.Role, "role", "single", "serving role: single, shard (also answer the shard RPC protocol on -rpc-addr), or coordinator (own no data; scatter-gather over -cluster)")
	fs.StringVar(&c.ClusterPath, "cluster", "", "cluster config JSON (required for -role=coordinator)")
	fs.StringVar(&c.RPCAddr, "rpc-addr", "", "shard RPC listen address (required for -role=shard)")
	return c
}

// validate refuses flag combinations no role can serve.
func (c *RunConfig) validate() error {
	if c.CheckpointEvery > 0 && c.SnapshotDir == "" {
		return errors.New("serve: -checkpoint-every requires -snapshot-dir")
	}
	switch c.Role {
	case "single":
		if c.RPCAddr != "" {
			return errors.New("serve: -rpc-addr requires -role=shard")
		}
		if c.ClusterPath != "" {
			return errors.New("serve: -cluster requires -role=coordinator")
		}
	case "shard":
		if c.RPCAddr == "" {
			return errors.New("serve: -role=shard requires -rpc-addr")
		}
	case "coordinator":
		if c.ClusterPath == "" {
			return errors.New("serve: -role=coordinator requires -cluster")
		}
		if c.DataDir != "" || c.SnapshotDir != "" {
			return errors.New("serve: a coordinator owns no data; -data and -snapshot-dir are for shard or single roles")
		}
	default:
		return fmt.Errorf("serve: unknown -role %q (single, shard, coordinator)", c.Role)
	}
	if c.TraceRate > 1 {
		return errors.New("serve: -trace-rate must be in [0, 1]")
	}
	if c.TraceRate < 0 && c.TraceExportURL != "" {
		return errors.New("serve: -trace-export-url requires -trace-rate >= 0")
	}
	return nil
}

// Process is one assembled, serving role: the engine, the role's RPC
// side, the tracer, the listeners and the background checkpointer.
// Start builds it and Shutdown takes it down; nothing else does either.
type Process struct {
	cfg    RunConfig
	e      *engine.Engine
	coord  *cluster.Coordinator // coordinator role only
	rsrv   *rpc.Server          // shard role only
	tracer *trace.Tracer        // nil: tracing off

	api, ops               *http.Server // ops nil without -ops-addr
	apiLis, opsLis, rpcLis net.Listener

	served   chan struct{} // closed once the API server stopped serving
	serveErr error         // why; read after served is closed

	ckStop context.CancelFunc
	ckWG   sync.WaitGroup
}

// Start validates cfg, opens (or warm-starts) the engine, loads -data,
// wires the role into the shared HTTP surface, binds every listener and
// only then starts serving. Any failure is returned with everything
// opened so far closed again.
func Start(cfg RunConfig) (_ *Process, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	par.SetLimit(cfg.Workers)
	p := &Process{cfg: cfg, served: make(chan struct{}), ckStop: func() {}}
	defer func() {
		if err != nil {
			p.release(true)
		}
	}()

	// One structured logger feeds both layers: the serve middleware's
	// per-request records and the engine's build/rebuild/WAL events,
	// joined by the request ids the middleware propagates via context.
	var appLog *slog.Logger
	if cfg.LogRequests {
		appLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	// One tracer serves the whole process: the HTTP middleware roots
	// (or adopts) request spans, the coordinator's scatter-gather and
	// RPC clients continue them over the wire, and a shard role's RPC
	// server + node continue traces arriving from coordinators.
	if cfg.TraceRate >= 0 {
		topts := trace.Options{Rate: cfg.TraceRate, Slow: cfg.TraceSlow, Buffer: cfg.TraceBuffer}
		if cfg.TraceExportURL != "" {
			topts.Export = trace.NewExporter(cfg.TraceExportURL, "rankedaccess-"+cfg.Role)
		}
		p.tracer = trace.New(topts)
		log.Printf("serve: tracing on (rate %g, slow %s); explorer at /debug/traces on the ops listener", cfg.TraceRate, cfg.TraceSlow)
		if cfg.OpsAddr == "" {
			log.Printf("serve: warning: tracing without -ops-addr keeps traces but exposes no /debug/traces listener")
		}
	}

	eopts := engine.Options{CacheSize: cfg.Cache, Logger: appLog}
	warm := false
	if cfg.SnapshotDir != "" {
		// First boot against a fresh directory: the WAL is created inside
		// it immediately, so the directory itself must exist up front.
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		snapshot.CleanTmp(cfg.SnapshotDir) // sweep temp files a crashed checkpoint stranded
		if p.e, warm, err = engine.Open(cfg.SnapshotDir, eopts); err != nil {
			return nil, fmt.Errorf("serve: warm start: %w", err)
		}
		if warm {
			st := p.e.Stats()
			log.Printf("serve: warm start from %s: %d tuples, %d structures mapped, version %d",
				cfg.SnapshotDir, st.Tuples, st.WarmStructures, st.Version)
		}
	} else {
		if cfg.Role == "coordinator" {
			ccfg, err := cluster.Load(cfg.ClusterPath)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			p.coord = cluster.NewCoordinator(ccfg, rpc.Options{})
			p.coord.SetTracer(p.tracer)
			eopts.Remote = p.coord
			log.Printf("serve: coordinator over %d shards across %d nodes", ccfg.Shards, len(ccfg.Nodes))
		}
		p.e = engine.New(database.NewInstance(), eopts)
	}
	switch {
	case cfg.DataDir != "" && warm:
		log.Printf("serve: warm start restored the instance; ignoring -data %s", cfg.DataDir)
	case cfg.DataDir != "":
		loaded := 0
		p.e.Mutate(func(in *database.Instance) {
			loaded, err = in.ReadDir(cfg.DataDir)
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		log.Printf("serve: loaded %d relations from %s", loaded, cfg.DataDir)
	}

	// Role plumbing into the shared HTTP surface: a shard node's RPC
	// server counters and a coordinator's per-peer client metrics land
	// on the same /metrics endpoint, and a coordinator's readiness
	// follows its probed view of the cluster.
	var extraMetrics func(*metrics.Registry)
	var readyCheck func() []string
	switch cfg.Role {
	case "shard":
		node := cluster.NewNode(p.e)
		node.SetTracer(p.tracer)
		p.rsrv = rpc.NewServer(node)
		p.rsrv.SetTracer(p.tracer)
		extraMetrics = p.rsrv.Instrument
	case "coordinator":
		extraMetrics = p.coord.RegisterMetrics
		readyCheck = p.coord.ReadyReasons
	}
	api := NewHandlerWith(p.e, Config{
		SnapshotDir:        cfg.SnapshotDir,
		RequestTimeout:     cfg.RequestTimeout,
		MaxBodyBytes:       cfg.MaxBody,
		RatePerSec:         cfg.RateLimit,
		RateBurst:          cfg.RateBurst,
		MaxConcurrent:      cfg.MaxConcurrent,
		MaxQueue:           cfg.MaxQueue,
		StreamWriteTimeout: cfg.StreamWriteTimeout,
		RequestLog:         appLog,
		LogMaxPerSec:       cfg.LogMaxPerSec,
		ReadyCheck:         readyCheck,
		ExtraMetrics:       extraMetrics,
		Tracer:             p.tracer,
	})

	// Every listener is bound before any of them serves: an address
	// already in use fails the boot instead of costing one log line and
	// the role's RPC side or the operator surface.
	if p.apiLis, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if p.rsrv != nil {
		if p.rpcLis, err = net.Listen("tcp", cfg.RPCAddr); err != nil {
			return nil, fmt.Errorf("serve: rpc listen: %w", err)
		}
	}
	if cfg.OpsAddr != "" {
		if p.opsLis, err = net.Listen("tcp", cfg.OpsAddr); err != nil {
			return nil, fmt.Errorf("serve: ops listener: %w", err)
		}
	}

	if p.rsrv != nil {
		log.Printf("serve: shard RPC listener on %s", p.rpcLis.Addr())
		go func() {
			if err := p.rsrv.Serve(p.rpcLis); err != nil {
				log.Printf("serve: rpc: %v", err)
			}
		}()
	}
	// The ops listener carries pprof (plus /metrics and the health
	// probes) on its own, private address — it never shares the public
	// port, so no client can reach a profile endpoint. It is the last
	// thing Shutdown closes; profiles during drain are exactly when an
	// operator wants them.
	if p.opsLis != nil {
		p.ops = &http.Server{Handler: NewOpsHandler(api), ReadHeaderTimeout: 10 * time.Second}
		log.Printf("serve: ops listener (pprof, metrics) on %s", cfg.OpsAddr)
		go func() {
			if err := p.ops.Serve(p.opsLis); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("serve: ops listener: %v", err)
			}
		}()
	}
	if cfg.CheckpointEvery > 0 {
		var ckCtx context.Context
		ckCtx, p.ckStop = context.WithCancel(context.Background())
		p.ckWG.Add(1)
		go func() {
			defer p.ckWG.Done()
			t := time.NewTicker(cfg.CheckpointEvery)
			defer t.Stop()
			for {
				select {
				case <-ckCtx.Done():
					return
				case <-t.C:
					p.checkpoint("background")
				}
			}
		}()
	}
	p.api = &http.Server{
		Handler: api,
		// Bound slow-header clients (slowloris) and idle keep-alive
		// connections; no overall write timeout, since NDJSON cursor
		// streams are legitimately long-lived.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("serve: %d tuples loaded, listening on %s", p.e.Stats().Tuples, cfg.Addr)
	go func() {
		p.serveErr = p.api.Serve(p.apiLis)
		close(p.served)
	}()
	return p, nil
}

// Addr, OpsAddr and RPCAddr are the bound addresses — the port an
// ":0" flag was given — and "" for a listener the role does not have.
func (p *Process) Addr() string    { return boundAddr(p.apiLis) }
func (p *Process) OpsAddr() string { return boundAddr(p.opsLis) }
func (p *Process) RPCAddr() string { return boundAddr(p.rpcLis) }

func boundAddr(lis net.Listener) string {
	if lis == nil {
		return ""
	}
	return lis.Addr().String()
}

// checkpoint writes the engine to the snapshot directory unless the
// newest checkpoint there — whoever wrote it: a tick, POST /v1/snapshots,
// a restore — already holds the engine's version and registry.
func (p *Process) checkpoint(why string) {
	if !p.e.Unsaved() {
		return
	}
	info, err := p.e.Checkpoint(p.cfg.SnapshotDir)
	if err != nil {
		log.Printf("serve: %s checkpoint: %v", why, err)
		return
	}
	log.Printf("serve: %s checkpoint %s: %d bytes, %d structures (version %d)",
		why, info.Name, info.Bytes, info.Structures, info.Version)
}

// Shutdown stops the process in the one order that loses nothing:
// drain HTTP until ctx expires, stop the checkpoint ticker, write the
// shutdown checkpoint, close the RPC side, the coordinator, the tracer,
// the engine and, last, the ops listener. A request that outlives ctx
// (one stalled NDJSON reader suffices) is cut off, not waited for — it
// costs the returned error, never the checkpoint.
func (p *Process) Shutdown(ctx context.Context) error {
	drainErr := p.api.Shutdown(ctx)
	if drainErr != nil {
		_ = p.api.Close()
		drainErr = fmt.Errorf("serve: shutdown: %w; closed the remaining connections", drainErr)
	}
	if <-p.served; !errors.Is(p.serveErr, http.ErrServerClosed) {
		drainErr = errors.Join(drainErr, fmt.Errorf("serve: %w", p.serveErr))
	}
	// Requests are drained; flush durability. The ticker goroutine is
	// stopped first and awaited, so an in-flight background checkpoint
	// completes (its temp-file write/rename is atomic and self-cleaning)
	// rather than being torn mid-write, and the checkpoint below cannot
	// race it.
	p.ckStop()
	p.ckWG.Wait()
	if p.cfg.SnapshotDir != "" {
		p.checkpoint("shutdown")
	}
	return errors.Join(drainErr, p.release(drainErr == nil))
}

// release closes whatever Start opened, in Shutdown's order. Shard RPCs
// stop being answered only here, after HTTP drained, so a coordinator's
// in-flight scatters against this node get to finish. The engine (WAL
// fd, snapshot mappings) is closed only when no handler can still be
// running: one cut off mid-probe after a failed drain may be reading a
// mapped structure, and that caller is about to exit anyway.
func (p *Process) release(handlersDone bool) error {
	var err error
	if p.rsrv != nil {
		_ = p.rsrv.Close() // waits for its connection handlers
	}
	if p.coord != nil {
		p.coord.Close()
	}
	p.tracer.Close()
	if p.e != nil && handlersDone {
		err = p.e.Close()
	}
	if p.ops != nil {
		_ = p.ops.Close()
	}
	// Only a failed Start still holds a listener no server owns.
	for _, lis := range []net.Listener{p.apiLis, p.rpcLis, p.opsLis} {
		if lis != nil {
			_ = lis.Close()
		}
	}
	return err
}

// Run is the whole life of a process: Start, serve until ctx is done
// (cmd/serve cancels it on SIGINT/SIGTERM), Shutdown within the drain
// window. A nil return is a clean stop; cmd/serve exits 1 on any other.
func Run(ctx context.Context, cfg RunConfig) error {
	p, err := Start(cfg)
	if err != nil {
		return err
	}
	select {
	case <-p.served: // the API listener failed under us; Shutdown reports why
	case <-ctx.Done():
		log.Printf("serve: signal received, draining in-flight requests (up to %s)", drainTimeout)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := p.Shutdown(sctx); err != nil {
		return err
	}
	log.Printf("serve: drained, bye")
	return nil
}
