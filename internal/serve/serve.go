// Package serve exposes an engine.Engine as an HTTP/JSON service — the
// front end cmd/serve mounts. All request bodies are JSON; answers are
// head tuples of dictionary-encoded int64 values.
//
// The primary surface is the versioned prepared-query API under /v1
// (register a spec once under a name, probe and stream it by name —
// see v1.go), the batch mutation endpoint /v1/write (atomic,
// WAL-durable relational writes — see write.go), plus the snapshot
// durability endpoints when a snapshot directory is configured
// (checkpoint/list/restore — see snapshots.go).
// Every body is declared once, in internal/api, which the client SDK
// aliases. The one-shot endpoints live under /v1/instance; access,
// range, select and classify are the by-name handlers themselves, fed
// a spec from the body instead of a registration from the path (see
// probeTarget):
//
//	POST /v1/instance/load      {"relation": "R", "rows": [[1,2], ...]}
//	POST /v1/instance/access    {"query", "order"|"sum_by", "fds", "ks": [0, 7, ...]}
//	POST /v1/instance/range     {"query", "order"|"sum_by", "fds", "k0", "k1"}
//	POST /v1/instance/select    {"query", "order"|"sum_by", "fds", "k"}
//	POST /v1/instance/classify  {"problem", "query", "order", "fds"}
//	POST /v1/instance/count     {"query"}
//	GET  /v1/stats
//	GET  /healthz
//	GET  /readyz
//	GET  /metrics
//
// Observability (this file + metrics.go/reqlog.go/ops.go): every
// route passes a per-endpoint middleware recording request counts by
// response class, latency histograms, and in-flight gauges; GET
// /metrics renders them — plus every counter /v1/stats reports, both
// off one snapshot (internal/stats declares each counter once) — in
// the Prometheus text format; Config.RequestLog enables
// structured per-request slog records with propagated request ids; and
// NewOpsHandler mounts pprof + monitoring for a private ops listener.
//
// access is batched: any number of indices is answered with a single
// plan/cache lookup, so a cold query pays one preprocessing and a warm
// query pays none. range answers a contiguous index window through the
// engine's AccessRange, which reuses one probe buffer for the whole
// window. Response encoding goes through pooled buffers, so the handlers
// allocate per response burst, not per answer: the three probe bodies
// (access, range, cursor page) append themselves straight from a pooled
// flat answer buffer (api.FlatAccess, FlatRange, FlatPage), with no
// reflection over the answers, and the coalescer in front of them costs
// a point read O(1) whether it hits or misses (see coalesce.go).
//
// Sharded serving: access, range, and count accept "shards" (and
// optionally "shard_by"); the engine partitions the instance, builds
// per-shard structures in parallel, and the handlers' probes fan out
// across shards and merge by global rank — each shard keeping its
// zero-alloc buffered probe path.
//
// Overload behavior: every non-monitoring request passes the admission
// pipeline (per-client token bucket → per-request deadline → global
// concurrency gate, see resilience.go); hot probe windows coalesce
// (see coalesce.go); a degraded engine serves reads from the last
// published epoch and sheds writes with 503 + Retry-After. /v1/stats,
// /metrics, /healthz, and /readyz bypass admission.
//
// Error handling: every handler error takes its status from one table
// (statusFor), and every response funnels through one writer that
// encodes the full body before emitting the status line, so error
// statuses are always set before any byte of the body and every error
// body is a structured {"error": ...} object.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/admission"
	"rankedaccess/internal/api"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
)

// defaultMaxBody bounds request bodies when Config.MaxBodyBytes is
// unset (a /load of a few million rows fits).
const defaultMaxBody = 256 << 20

// defaultStreamWriteTimeout bounds each NDJSON chunk write when
// Config.StreamWriteTimeout is unset: a reader that accepts nothing
// for this long is presumed gone, and its stream — and the epoch
// handle the cursor pins — is released.
const defaultStreamWriteTimeout = 30 * time.Second

// maxPooledBuf bounds (in bytes) the encode buffers kept in the pool,
// and maxPooledTuples bounds (in values) the flat answer buffers, so
// one giant response does not pin its memory forever.
const (
	maxPooledBuf    = 1 << 20
	maxPooledTuples = maxPooledBuf / 8
)

// encPool recycles JSON encode buffers across responses.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// tuplePool recycles the flat answer buffers of /range responses.
var tuplePool = sync.Pool{New: func() any { return new([]values.Value) }}

// ndjsonPool recycles the line-encoding buffers of NDJSON streaming.
var ndjsonPool = sync.Pool{New: func() any { return new([]byte) }}

// putTupleBuf returns a flat answer buffer to the pool unless it grew
// past the cap.
func putTupleBuf(flatP *[]values.Value, flat []values.Value) {
	if cap(flat) <= maxPooledTuples {
		*flatP = flat
		tuplePool.Put(flatP)
	}
}

// Config tunes optional server features. The zero value serves with
// resilience features at safe defaults: no rate limit, no concurrency
// gate, no request deadline (set them to engage admission control),
// 256 MiB bodies, 30s stream write deadline. Probe-window coalescing
// is always on (see coalesce.go).
type Config struct {
	// SnapshotDir, when non-empty, enables the durability endpoints
	// (/v1/snapshots — checkpoint, list, restore) against that
	// directory, and gates /readyz on the directory staying writable.
	// Empty leaves them unmounted.
	SnapshotDir string

	// RequestTimeout bounds one non-streaming request end to end,
	// including queue wait and engine work; a request that exceeds it
	// is answered 503 with Retry-After. 0 means no deadline.
	RequestTimeout time.Duration

	// MaxBodyBytes caps request bodies (413 beyond it) on every
	// decoding endpoint, /v1/write included. 0 means 256 MiB.
	MaxBodyBytes int64

	// RatePerSec and RateBurst configure the per-client token bucket;
	// clients over budget get 429 with Retry-After. RatePerSec <= 0
	// disables rate limiting.
	RatePerSec float64
	RateBurst  int

	// MaxConcurrent caps requests running at once; MaxQueue caps how
	// many may wait for a slot (beyond that: 503 + Retry-After).
	// MaxConcurrent <= 0 disables the gate; MaxQueue < 0 defaults to
	// MaxConcurrent.
	MaxConcurrent int
	MaxQueue      int

	// StreamWriteTimeout bounds each NDJSON chunk write, so one
	// stalled reader cannot pin a cursor's epoch forever. 0 means 30s;
	// negative disables the deadline.
	StreamWriteTimeout time.Duration

	// RequestLog, when non-nil, emits one structured record per request
	// (pair it with slog.NewJSONHandler for JSON logs): method, path,
	// endpoint, status, bytes, latency, client, request id. Ids are
	// adopted from X-Request-ID or minted, echoed in the response
	// header, and propagated via context into engine build/rebuild/
	// degradation events (see internal/reqid). Nil disables request
	// logging — and skips its per-request work entirely.
	RequestLog *slog.Logger

	// LogMaxPerSec bounds request-log volume under load: past this many
	// records in one wall-clock second, only every 16th further record
	// is kept (drops are counted in
	// ra_http_request_logs_sampled_out_total). 0 means 500; negative
	// disables sampling.
	LogMaxPerSec int

	// ReadyCheck, when non-nil, contributes extra readiness reasons to
	// /readyz (each returned string flips readiness false). The
	// coordinator role wires its cluster health here, so an unreachable
	// shard node routes traffic away.
	ReadyCheck func() []string

	// ExtraMetrics, when non-nil, is invoked once on the server's
	// metrics registry at construction, so roles can attach their own
	// series (per-peer RPC metrics, RPC server counters) to the same
	// /metrics endpoint.
	ExtraMetrics func(*metrics.Registry)

	// Tracer, when non-nil, wraps every request in a server span:
	// incoming traceparent headers are adopted (the request joins its
	// caller's trace), otherwise a trace is minted; latency-histogram
	// exemplars link /metrics buckets to the stored traces. Nil
	// disables tracing with zero per-request cost.
	Tracer *trace.Tracer
}

// server holds one mounted API's state: the engine, admission
// machinery, cursor store, coalescer, and overload counters.
type server struct {
	e   *engine.Engine
	cfg Config
	st  *cursorStore

	lim  *admission.RateLimiter // nil: rate limiting off
	gate *admission.Gate        // nil: concurrency gate off
	coal *coalescer

	maxBody     int64
	streamWrite time.Duration // <= 0: no per-chunk write deadline

	shed429       atomic.Uint64 // rate-limited requests
	shed503       atomic.Uint64 // gate-shed requests
	degradedReads atomic.Uint64 // reads answered from a stale epoch
	writeSheds    atomic.Uint64 // writes refused while degraded

	mets    *serverMetrics // /metrics registry + per-endpoint series
	reqLog  *slog.Logger   // nil: request logging off
	logSamp logSampler
	tracer  *trace.Tracer // nil: tracing off

	healthMu sync.Mutex
	healthAt time.Time
	healthC  engine.Health
}

// NewHandler mounts the API for one engine with default configuration;
// see NewHandlerWith.
func NewHandler(e *engine.Engine) http.Handler {
	return NewHandlerWith(e, Config{})
}

// NewHandlerWith mounts the API for one engine: the versioned /v1
// prepared-query surface (see v1.go), the snapshot endpoints when
// configured (see snapshots.go), the probe endpoints (see health.go),
// and the one-shot endpoints under /v1/instance.
func NewHandlerWith(e *engine.Engine, cfg Config) http.Handler {
	s := &server{e: e, cfg: cfg, st: newCursorStore(defaultMaxCursors), coal: newCoalescer()}
	s.maxBody = cfg.MaxBodyBytes
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBody
	}
	s.streamWrite = cfg.StreamWriteTimeout
	if s.streamWrite == 0 {
		s.streamWrite = defaultStreamWriteTimeout
	}
	if cfg.RatePerSec > 0 {
		s.lim = admission.NewRateLimiter(cfg.RatePerSec, cfg.RateBurst, 0)
	}
	if cfg.MaxConcurrent > 0 {
		s.gate = admission.NewGate(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	s.reqLog = cfg.RequestLog
	s.tracer = cfg.Tracer
	s.logSamp.max = int64(cfg.LogMaxPerSec)
	if s.logSamp.max == 0 {
		s.logSamp.max = defaultLogMaxPerSec
	}
	// The routes below need the registry (instrument resolves each
	// endpoint's series at mount time, so request paths never look one
	// up).
	s.mets = newServerMetrics(s)

	mux := http.NewServeMux()

	// One-shot instance endpoints.
	s.route(mux, "POST /v1/instance/load", "instance_load", s.admit(s.handleLoad))
	s.route(mux, "POST /v1/instance/access", "instance_access", s.admit(s.handleAccess))
	s.route(mux, "POST /v1/instance/range", "instance_range", s.admit(s.handleRange))
	s.route(mux, "POST /v1/instance/select", "instance_select", s.admit(s.handleSelect))
	s.route(mux, "POST /v1/instance/classify", "instance_classify", s.admit(s.handleClassify))
	s.route(mux, "POST /v1/instance/count", "instance_count", s.admit(s.handleCount))

	// Monitoring endpoints bypass admission: an operator must be able
	// to observe (and an orchestrator to probe) an overloaded server.
	// They still pass the middleware, so scrape/probe traffic is
	// visible in the request series like everything else.
	s.route(mux, "GET /v1/stats", "stats", s.handleStats)
	s.route(mux, "GET /healthz", "healthz", s.handleHealthz)
	s.route(mux, "GET /readyz", "readyz", s.handleReadyz)
	s.route(mux, "GET /metrics", "metrics", s.handleMetrics)

	s.route(mux, "POST /v1/write", "write", s.admit(s.handleWrite))
	s.route(mux, "POST /v1/queries", "queries_register", s.admit(s.handleRegister))
	s.route(mux, "GET /v1/queries", "queries_list", s.admit(s.handleList))
	s.route(mux, "GET /v1/queries/{name}", "queries_get", s.admit(s.handleGetQuery))
	s.route(mux, "DELETE /v1/queries/{name}", "queries_evict", s.admit(s.handleEvict))
	s.route(mux, "POST /v1/queries/{name}/access", "query_access", s.admit(s.handleAccess))
	s.route(mux, "POST /v1/queries/{name}/range", "query_range", s.admit(s.handleRange))
	s.route(mux, "POST /v1/queries/{name}/select", "query_select", s.admit(s.handleSelect))
	s.route(mux, "POST /v1/queries/{name}/count", "query_count", s.admit(s.handleV1Count))
	s.route(mux, "POST /v1/queries/{name}/classify", "query_classify", s.admit(s.handleClassify))
	s.route(mux, "POST /v1/queries/{name}/cursor", "cursor_create", s.admit(s.handleCursorCreate))
	s.route(mux, "GET /v1/cursors/{id}/next", "cursor_next", s.admitStream(s.handleCursorNext))
	s.route(mux, "DELETE /v1/cursors/{id}", "cursor_close", s.admit(s.handleCursorClose))
	if dir := cfg.SnapshotDir; dir != "" {
		s.route(mux, "POST /v1/snapshots", "snapshot_create",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotCreate(e, dir, w, r) }))
		s.route(mux, "GET /v1/snapshots", "snapshot_list",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotList(dir, w, r) }))
		s.route(mux, "POST /v1/snapshots/{name}/restore", "snapshot_restore",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotRestore(e, dir, w, r) }))
	}
	return apiHandler{ServeMux: mux, s: s}
}

// route mounts one endpoint under the per-endpoint middleware (see
// instrument in metrics.go). The endpoint name is the metric label —
// one of a fixed set chosen here, never derived from the request.
func (s *server) route(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, s.instrument(endpoint, h))
}

func shardInfo(p engine.Plan) api.ShardEcho {
	return api.ShardEcho{Shards: p.Shards, ShardBy: p.ShardBy, ShardNote: p.ShardNote}
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.shedWrite(w, r) {
		return
	}
	var req api.LoadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Relation == "" {
		fail(w, http.StatusBadRequest, errors.New("serve: relation is required"))
		return
	}
	// AddRows validates arity (against the existing relation or within
	// the batch) before mutating anything.
	if err := s.e.AddRows(req.Relation, req.Rows); err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.LoadResponse{Relation: req.Relation, Loaded: len(req.Rows), Version: s.e.Version()})
}

// probeTarget decodes a probe's body and names what the probe runs
// against — the one step in which the two handler generations differ.
// On /v1/queries/{name}/… that is the registration (parsed once, at
// registration) and the body is byName alone, so a body carrying spec
// fields is an unknown-field 400; on /v1/instance/… it is nil and the
// body is oneShot, which carries the spec next to the same arguments.
func (s *server) probeTarget(w http.ResponseWriter, r *http.Request, oneShot, byName any) (*engine.PreparedQuery, bool) {
	name := r.PathValue("name")
	if name == "" {
		return nil, s.decode(w, r, oneShot)
	}
	pq, err := s.e.Prepared(name)
	if err != nil {
		failErr(w, err)
		return nil, false
	}
	return pq, s.decode(w, r, byName)
}

// probeHandle resolves the structure a probe reads: the registration's
// current epoch (see acquireRead), or a one-shot prepare of the spec —
// served from the engine's cache when the same spec was built before.
func (s *server) probeHandle(ctx context.Context, pq *engine.PreparedQuery, spec engine.Spec) (*engine.Handle, error) {
	if pq != nil {
		return s.acquireRead(ctx, pq)
	}
	return s.e.PrepareCtx(ctx, spec)
}

// answer writes a probe's encoded response. By name, concurrent
// identical probes of one epoch share a single probe + encode through
// the coalescer, keyed under the registration's id (see coalesce.go); a
// one-shot probe has no id to coalesce under and encodes for itself.
func (s *server) answer(w http.ResponseWriter, r *http.Request, op string, pq *engine.PreparedQuery, h *engine.Handle, args []int64, encode func() ([]byte, error)) {
	var body []byte
	var err error
	if pq != nil {
		var kb [64]byte
		body, err = s.coal.do(r.Context(), appendCoalesceKey(kb[:0], op, pq.ID(), h.Version(), args), encode)
	} else {
		body, err = encode()
	}
	if err != nil {
		failErr(w, err)
		return
	}
	writeRaw(w, http.StatusOK, body)
}

// buildAccessResponse probes a batch of indices against a prepared
// handle, appending the answers' tuples to flat back to back; per-index
// failures land in Errs without failing the batch — EXCEPT
// infrastructure failures (an unreachable or stale shard node), which
// abort the whole batch: a half-answered batch whose gaps mean "the
// cluster is down", not "out of range", would read as data.
func buildAccessResponse(ctx context.Context, h *engine.Handle, ks []int64, flat []values.Value) (api.FlatAccess, error) {
	resp := api.FlatAccess{
		AccessHeader: api.AccessHeader{
			Total:     h.Total(),
			Mode:      string(h.Plan.Mode),
			Tractable: h.Plan.Tractable,
			Verdict:   h.Plan.Verdict.String(),
			ShardEcho: shardInfo(h.Plan),
		},
		Ks:    ks,
		Width: h.Width(),
	}
	for i, k := range ks {
		start := len(flat)
		var err error
		if flat, err = h.AppendTupleCtx(ctx, flat, k); err != nil {
			if errors.Is(err, rpc.ErrUnavailable) || errors.Is(err, rpc.ErrStaleVersion) {
				resp.Flat = flat
				return resp, err
			}
			if resp.Errs == nil {
				resp.Errs = make([]string, len(ks))
			}
			resp.Errs[i] = publicErr(err)
			flat = flat[:start]
		}
	}
	resp.Flat = flat
	return resp, nil
}

// handleAccess serves both /v1/instance/access and
// /v1/queries/{name}/access.
func (s *server) handleAccess(w http.ResponseWriter, r *http.Request) {
	var req api.InstanceAccessRequest
	pq, ok := s.probeTarget(w, r, &req, &req.AccessRequest)
	if !ok {
		return
	}
	h, err := s.probeHandle(r.Context(), pq, req.Spec)
	if err != nil {
		failErr(w, err)
		return
	}
	s.answer(w, r, "access", pq, h, req.Ks, func() ([]byte, error) {
		flatP := tuplePool.Get().(*[]values.Value)
		resp, err := buildAccessResponse(r.Context(), h, req.Ks, (*flatP)[:0])
		var b []byte
		if err == nil {
			b, err = encodeJSON(resp)
		}
		putTupleBuf(flatP, resp.Flat)
		return b, err
	})
}

// maxRange bounds one /range window (the client can page).
const maxRange = 1 << 20

// handleRange serves both /v1/instance/range and
// /v1/queries/{name}/range.
func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req api.InstanceRangeRequest
	pq, ok := s.probeTarget(w, r, &req, &req.RangeRequest)
	if !ok {
		return
	}
	if req.K1-req.K0 > maxRange {
		fail(w, http.StatusBadRequest, fmt.Errorf("serve: range wider than %d; page the request", maxRange))
		return
	}
	h, err := s.probeHandle(r.Context(), pq, req.Spec)
	if err != nil {
		failErr(w, err)
		return
	}
	s.answer(w, r, "range", pq, h, []int64{req.K0, req.K1}, func() ([]byte, error) {
		flatP := tuplePool.Get().(*[]values.Value)
		flat, err := h.AccessRangeCtx(r.Context(), (*flatP)[:0], req.K0, req.K1)
		if err != nil {
			putTupleBuf(flatP, flat)
			return nil, err
		}
		// A width-0 window has no values to count its rows by.
		rows := api.FlatRows{Flat: flat, Width: h.Width(), N: int(req.K1 - req.K0)}
		if rows.Width > 0 {
			rows.N = len(flat) / rows.Width
		}
		b, err := encodeJSON(api.FlatRange{
			RangeHeader: api.RangeHeader{
				Total: h.Total(), Mode: string(h.Plan.Mode), Tractable: h.Plan.Tractable, K0: req.K0,
				ShardEcho: shardInfo(h.Plan),
			},
			Tuples: rows,
		})
		putTupleBuf(flatP, flat)
		return b, err
	})
}

// handleSelect serves both /v1/instance/select and
// /v1/queries/{name}/select (by name: the registration-time parse, no
// re-parsing).
func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req api.InstanceSelectRequest
	pq, ok := s.probeTarget(w, r, &req, &req.SelectRequest)
	if !ok {
		return
	}
	var tuple []values.Value
	var err error
	if pq != nil {
		tuple, err = pq.Select(req.K)
	} else {
		tuple, err = s.e.Select(req.Spec, req.K)
	}
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.SelectResponse{K: req.K, Tuple: tuple})
}

// handleClassify serves both /v1/instance/classify and
// /v1/queries/{name}/classify.
func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req api.InstanceClassifyRequest
	pq, ok := s.probeTarget(w, r, &req, &req.ClassifyRequest)
	if !ok {
		return
	}
	if req.Problem == "" {
		req.Problem = engine.ProblemDirectAccessLex
	}
	var v classify.Verdict
	var err error
	if pq != nil {
		v, err = pq.Classify(req.Problem)
	} else {
		v, err = s.e.Classify(req.Problem, req.Spec)
	}
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.Classification{Tractable: v.Tractable, Bound: v.Bound, Verdict: v.String(), Trio: v.Trio})
}

func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req api.CountRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Shards ≥ 2 scatter-gathers: per-shard counts run in parallel and
	// sum (shard answer sets partition the answer space).
	n, info, err := s.e.CountSharded(r.Context(), req.Query, req.Shards, req.ShardBy)
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.CountResponse{Count: n, ShardEcho: info})
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		failErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// statusFor is the API's one status table: it maps cross-layer sentinel
// errors to stable status codes; anything unrecognized is a plain bad
// request. Running out of deadline inside the engine, an unreachable
// shard node (which already survived the RPC layer's retry-once) and a
// broken WAL (which fails every write until repair) are the server's
// problem, never the client's: 503, and fail adds the Retry-After. A
// shard node whose data moved past the prepared version means the
// registration is gone (410), and a write against a coordinator is not
// the coordinator's to take (403).
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, rpc.ErrUnavailable), errors.Is(err, delta.ErrWALBroken):
		return http.StatusServiceUnavailable
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, engine.ErrNotPrepared):
		return http.StatusNotFound
	case errors.Is(err, access.ErrOutOfBound):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, access.ErrIntractable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, rpc.ErrStaleVersion):
		return http.StatusGone
	case errors.Is(err, engine.ErrReadOnly):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

// failErr writes a structured error with the table's status.
func failErr(w http.ResponseWriter, err error) { fail(w, statusFor(err), err) }

// fail writes a structured error with the status the handler chose —
// unless the table says the error is the server's own unavailability,
// which is reported as such (503 + Retry-After, telling the client when
// to come back instead of letting it hammer a server that is
// mid-failover) regardless of what the handler guessed.
func fail(w http.ResponseWriter, status int, err error) {
	if statusFor(err) == http.StatusServiceUnavailable {
		shed(w, http.StatusServiceUnavailable, time.Second, err)
		return
	}
	writeJSON(w, status, api.Error{Error: err.Error()})
}

func reply(w http.ResponseWriter, body any) {
	writeJSON(w, http.StatusOK, body)
}

// encodeInto renders body and a newline into buf. The probe bodies
// (api.FlatAccess, api.FlatRange, api.FlatPage) append themselves,
// straight from the engine's flat answer buffer; every other body is
// encoding/json's.
func encodeInto(buf *bytes.Buffer, body any) error {
	a, ok := body.(interface {
		AppendJSON([]byte) ([]byte, error)
	})
	if !ok {
		return json.NewEncoder(buf).Encode(body)
	}
	b, err := a.AppendJSON(buf.AvailableBuffer())
	if err != nil {
		return err
	}
	buf.Write(b)
	buf.WriteByte('\n')
	return nil
}

// putEncBuf returns an encode buffer to the pool unless it grew past
// the cap.
func putEncBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		encPool.Put(buf)
	}
}

// writeJSON encodes through a pooled buffer: one write syscall per
// response and no per-response encoder garbage. Oversized buffers are
// dropped instead of pooled.
//
// Every handler response — success or error — funnels through here, and
// the body is fully encoded into the buffer BEFORE the status line is
// written: a late encoding failure therefore still produces a clean
// status code and a structured {"error": ...} body, never a 200 with a
// truncated or mixed payload.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := encodeInto(buf, body); err != nil {
		encPool.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"serve: response encoding failed"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putEncBuf(buf)
}

// writeRaw emits a pre-encoded JSON body (the coalescer caches and
// shares encoded bodies across requests).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// encodeJSON renders a response body to a standalone slice of exactly
// its length: it encodes into pooled scratch and returns a copy.
// Coalesce cache entries outlive any one request, so whatever capacity a
// body carries beyond its length stays resident 256 entries deep —
// bodies grown by append read 119 MB server RSS on http_read where
// exact copies read 96.
func encodeJSON(body any) ([]byte, error) {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := encodeInto(buf, body)
	var out []byte
	if err == nil {
		out = make([]byte, buf.Len())
		copy(out, buf.Bytes())
	}
	putEncBuf(buf)
	return out, err
}

// publicErr maps per-index access errors to stable API strings.
func publicErr(err error) string {
	switch {
	case errors.Is(err, access.ErrOutOfBound):
		return "out of bound"
	case errors.Is(err, access.ErrNotAnAnswer):
		return "not an answer"
	default:
		return err.Error()
	}
}
