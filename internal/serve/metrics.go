// metrics.go is the serve layer's observability surface: the one
// snapshot() both stats surfaces render (GET /v1/stats as JSON, GET
// /metrics as func-backed series walked off stats.Snapshot's tags), a
// metrics.Registry holding them, and the per-endpoint HTTP middleware
// (request counts by response class, latency histograms, in-flight
// gauges).
//
// Cardinality is bounded by construction: endpoint label values are
// the fixed route names in serve.go, response classes are "1xx".."5xx",
// and histogram buckets are metrics.DefBuckets. Nothing mints a new
// series at request time (see CONTRIBUTING.md for the naming and label
// rules).
//
// The engine's own counters are not mirrored: a scrape takes one
// snapshot() and every declared series reads its field of it, so one
// scrape costs one pass over the engine's locks no matter how many
// series it exports.
package serve

import (
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/metrics"
	"rankedaccess/internal/reqid"
	"rankedaccess/internal/stats"
	"rankedaccess/internal/trace"
)

// serverMetrics owns the registry and the per-endpoint series.
type serverMetrics struct {
	reg *metrics.Registry

	mu     sync.Mutex
	routes map[string]*routeMetrics

	// logsSampledOut counts request-log records dropped by load
	// sampling.
	logsSampledOut *metrics.Counter

	// snap is the sample the declared series read; handleMetrics
	// replaces it before every render.
	snap atomic.Pointer[stats.Snapshot]
}

// routeMetrics is one endpoint's series set.
type routeMetrics struct {
	classes  [5]*metrics.Counter // response class 1xx..5xx
	lat      *metrics.Histogram
	inflight *metrics.Gauge
}

// observe records one finished request; a non-empty traceID becomes
// the latency bucket's exemplar, linking /metrics to /debug/traces.
func (rm *routeMetrics) observe(status int, d time.Duration, traceID string) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	rm.classes[class-1].Inc()
	rm.lat.ObserveExemplar(d.Seconds(), traceID)
}

var classNames = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// route returns (registering on first use) the series for an endpoint.
func (m *serverMetrics) route(endpoint string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm := m.routes[endpoint]; rm != nil {
		return rm
	}
	rm := &routeMetrics{
		lat: m.reg.Histogram("ra_http_request_duration_seconds",
			"request latency by endpoint", nil, "endpoint", endpoint),
		inflight: m.reg.Gauge("ra_http_in_flight",
			"requests currently being served by endpoint", "endpoint", endpoint),
	}
	for i, class := range classNames {
		rm.classes[i] = m.reg.Counter("ra_http_requests_total",
			"requests served by endpoint and response class",
			"endpoint", endpoint, "code", class)
	}
	m.routes[endpoint] = rm
	return rm
}

// snapshot samples every exported counter once: engine stats and
// health, admission gate, coalescer, cursor store, and the server's own
// overload counters. Both stats surfaces render this and nothing else,
// so they cannot disagree about a value's source.
func (s *server) snapshot() *stats.Snapshot {
	st, h := s.e.Stats(), s.e.Health()
	snap := &stats.Snapshot{
		CacheHits:       st.Hits,
		CacheMisses:     st.Misses,
		CacheEntries:    st.Entries,
		Version:         st.Version,
		Tuples:          st.Tuples,
		Prepared:        st.Prepared,
		RegistryHits:    st.RegistryHits,
		Reprepares:      st.Reprepares,
		OpenCursors:     s.st.open(),
		Checkpoints:     st.Checkpoints,
		Restores:        st.Restores,
		WarmStructures:  st.WarmStructures,
		WALBatches:      st.WALBatches,
		DeltaSkips:      st.DeltaSkips,
		DeltaEpochs:     st.DeltaEpochs,
		DeltaRebuilds:   st.DeltaRebuilds,
		BGRebuilds:      st.BGRebuilds,
		Shed429:         s.shed429.Load(),
		Shed503:         s.shed503.Load(),
		CoalesceHits:    s.coal.hits.Load(),
		CoalesceMisses:  s.coal.misses.Load(),
		DegradedReads:   s.degradedReads.Load(),
		WriteSheds:      s.writeSheds.Load(),
		Degraded:        h.Degraded(),
		OverlayEditsMax: h.MaxOverlayEdits,
		BGRebuilding:    h.BGRebuilding,
	}
	if s.gate != nil {
		snap.InFlight, snap.QueueDepth = s.gate.Active(), s.gate.QueueDepth()
	}
	return snap
}

// newServerMetrics builds the registry and registers one func-backed
// series per stats.Snapshot field, named and described by its tags; a
// name ending in _total is a counter, anything else a gauge.
func newServerMetrics(s *server) *serverMetrics {
	m := &serverMetrics{reg: metrics.NewRegistry(), routes: make(map[string]*routeMetrics)}
	rt := reflect.TypeOf(stats.Snapshot{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag
		name, help := tag.Get("metric"), tag.Get("help")
		read := func() float64 { return number(reflect.ValueOf(m.snap.Load()).Elem().Field(i)) }
		if strings.HasSuffix(name, "_total") {
			m.reg.CounterFunc(name, help, read)
		} else {
			m.reg.GaugeFunc(name, help, read)
		}
	}
	s.e.RegisterMetrics(m.reg)
	m.logsSampledOut = m.reg.Counter("ra_http_request_logs_sampled_out_total",
		"request-log records dropped by under-load sampling")
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(m.reg)
	}
	return m
}

// number renders one Snapshot field as a sample value: the struct holds
// only uint64 and int counts and bool states (exported as 0/1).
func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Int:
		return float64(v.Int())
	default:
		return float64(v.Uint())
	}
}

// recPool recycles status recorders so the middleware adds no
// steady-state allocations to instrumented handlers.
var recPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// statusRecorder captures the response status and body size on its way
// to the real ResponseWriter. Unwrap exposes the underlying writer so
// http.ResponseController (used by NDJSON streaming for flushes and
// per-chunk write deadlines) reaches the connection's controls through
// the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps a fully-composed handler chain (admission included,
// so shed 429/503 responses are counted like any other) with the
// per-endpoint middleware: in-flight gauge, latency histogram,
// response-class counter, and — when request logging is on — request
// id assignment and one structured log record per request.
//
// Counting happens in a defer, so no exit path can skip it: early
// fail() returns, NDJSON streams that never call WriteHeader (the
// recorder defaults to 200 on first Write), admission sheds, and even
// handler panics (counted as 5xx, then re-unwound to the server's
// recovery) all land in the same series.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.mets.route(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sr := recPool.Get().(*statusRecorder)
		sr.ResponseWriter, sr.status, sr.bytes = w, 0, 0
		var id string
		if s.reqLog != nil {
			id = incomingID(r)
			sr.Header().Set("X-Request-ID", id)
			r = r.WithContext(reqid.With(r.Context(), id))
		}
		// The HTTP server span: adopt the caller's trace when the
		// request carries a valid traceparent (this server is one hop
		// of a larger request), mint one otherwise. With no tracer
		// configured this whole block is two nil checks.
		var span *trace.Span
		if s.tracer != nil {
			ctx := r.Context()
			if sc, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = trace.ContextWithRemote(ctx, sc)
			}
			ctx, span = s.tracer.Start(ctx, "http."+endpoint, trace.KindServer)
			span.SetAttr(
				trace.Str("endpoint", endpoint),
				trace.Str("method", r.Method),
			)
			r = r.WithContext(ctx)
		}
		rm.inflight.Inc()
		start := time.Now()
		panicked := true
		defer func() {
			d := time.Since(start)
			rm.inflight.Dec()
			status, bytes := sr.status, sr.bytes
			if status == 0 {
				if panicked {
					status = http.StatusInternalServerError
				} else {
					// A clean return with no writes is an implicit 200.
					status = http.StatusOK
				}
			}
			sr.ResponseWriter = nil
			recPool.Put(sr)
			var traceID string
			if span != nil {
				traceID = span.TraceIDString()
				span.SetAttr(trace.Int("status", int64(status)))
				if status >= 500 {
					span.SetErrorString(http.StatusText(status))
				}
				span.End()
			}
			rm.observe(status, d, traceID)
			if s.reqLog != nil {
				s.logRequest(r, endpoint, id, traceID, status, bytes, d)
			}
		}()
		h(sr, r)
		panicked = false
	}
}

// handleStats and handleMetrics are the two renderings of snapshot().
// Monitoring surface: both bypass admission.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	reply(w, s.snapshot())
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mets.snap.Store(s.snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mets.reg.WritePrometheus(w)
}
