package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/order"
	"rankedaccess/internal/trace"
)

// Backend is what a shard node implements to answer the typed calls
// (see internal/cluster.Node). Every method may be called from many
// connections concurrently.
type Backend interface {
	Prepare(ctx context.Context, spec Spec) (*PrepareInfo, error)
	Count(ctx context.Context, spec CountSpec) (int64, error)
	Range(ctx context.Context, spec Spec, version uint64, shard int, k0, k1 int64) ([]order.Answer, error)
	// AccessBatch and RankBatch serve a whole rank round: the local
	// answers at many (shard, position) pairs, priced on every owned
	// shard, and many answers priced on every owned shard (see
	// decodeAccessBatchResp, RankBatchResp for the layouts).
	AccessBatch(ctx context.Context, spec Spec, version uint64, shards []int, pos []int64) (answers []order.Answer, ranks []int64, err error)
	RankBatch(ctx context.Context, spec Spec, version uint64, answers []order.Answer) (ranks []int64, exact []bool, err error)
	Stats(ctx context.Context) (*PeerStats, error)
	Health(ctx context.Context) (*HealthInfo, error)
}

// serverIdleTimeout reaps connections with no request for this long
// (or down to half of it, see handle), so half-dead peers cannot pin
// goroutines forever.
const serverIdleTimeout = 5 * time.Minute

// handshakeTimeout bounds the connect preamble in both directions.
const handshakeTimeout = 10 * time.Second

// Server accepts framed-protocol connections and dispatches their
// requests to a Backend, one request at a time per connection.
type Server struct {
	b Backend

	mu     sync.Mutex
	lis    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	m      atomic.Pointer[serverMetrics]
	tracer atomic.Pointer[trace.Tracer]
}

// serverMetrics are the instruments Instrument registers, published as
// one pointer so a request reads them without a lock.
type serverMetrics struct {
	requests [numKinds]*metrics.Counter
	inflight *metrics.Gauge
	duration *metrics.Histogram
}

// NewServer returns a server dispatching to b.
func NewServer(b Backend) *Server {
	return &Server{b: b, conns: make(map[net.Conn]struct{})}
}

// SetTracer makes every dispatched request run under a server span
// that continues the trace carried in the wire's trace field (or roots
// a fresh one when the field is all-zero). nil disables.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// Instrument registers the server-side RPC series (requests served by
// method, in-flight gauge, handling-duration histogram with
// sub-millisecond buckets) on reg; call before Serve.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.m.Store(&serverMetrics{
		requests: methodCounters(reg, "ra_rpc_server_requests_total", "RPC requests served by method."),
		inflight: reg.Gauge("ra_rpc_server_in_flight", "RPC requests currently executing."),
		duration: reg.Histogram("ra_rpc_server_duration_seconds",
			"RPC request handling time (decode to encode).", rpcLatencyBounds),
	})
}

// Serve accepts connections on l until Close (which returns nil) or an
// accept error.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("rpc: server closed")
	}
	s.lis = append(s.lis, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops the listeners, closes every live connection, and waits
// for their handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range lis {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	ver, err := readHandshake(br)
	if err != nil {
		return
	}
	// Negotiate down to the client's version when it is older; refuse
	// clients older than our floor by closing without replying.
	if ver < minProtoVersion {
		return
	}
	if ver > ProtoVersion {
		ver = ProtoVersion
	}
	if err := writeHandshake(conn, ver); err != nil {
		return
	}
	// The connection's frame buffers: one request at a time, so one of
	// each, reused for every request. Nothing decoded from r outlives
	// its request (the dec readers copy).
	var (
		r dec
		w enc
	)
	// One deadline covers waiting for a request and writing its
	// response. It is pushed out only once half of it is used up — a
	// timer operation every few minutes, not two per request.
	idleAt := time.Now().Add(serverIdleTimeout)
	conn.SetDeadline(idleAt)
	for {
		req, err := readFrame(br, r.b)
		if err != nil {
			return
		}
		r = dec{b: req}
		h := decodeReqHeader(&r)
		if r.bad {
			return
		}
		ctx := context.Background()
		if h.trace.Valid() {
			ctx = trace.ContextWithRemote(ctx, h.trace)
		}
		var cancel context.CancelFunc = func() {}
		if h.deadlineMillis > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(h.deadlineMillis)*time.Millisecond)
		}
		s.dispatch(ctx, &h, &r, &w)
		cancel()
		if now := time.Now(); idleAt.Sub(now) < serverIdleTimeout/2 {
			idleAt = now.Add(serverIdleTimeout)
			conn.SetDeadline(idleAt)
		}
		if err := writeFrame(conn, w.b); err != nil {
			return
		}
		r.b, w.b = kept(r.b), kept(w.b)
	}
}

// dispatch decodes the body for the kind, runs the backend call, and
// encodes the response frame (id, kind, status, body) into e.
func (s *Server) dispatch(ctx context.Context, h *reqHeader, d *dec, e *enc) {
	m := s.m.Load()
	if m != nil {
		if int(h.kind) < numKinds && m.requests[h.kind] != nil {
			m.requests[h.kind].Inc() // a kind this build does not know is counted nowhere and refused below
		}
		m.inflight.Inc()
		defer m.inflight.Dec()
	}
	// The server span is this node's local root: it continues the
	// coordinator's trace when the wire field carried one, and its End
	// decides whether this node stores its slice of the trace.
	var span *trace.Span
	if t := s.tracer.Load(); t != nil {
		ctx, span = t.Start(ctx, "rarc.server."+KindName(h.kind), trace.KindServer)
	}
	start := time.Now()

	e.frame()
	e.u64(h.id)
	e.u8(uint8(h.kind))
	status := len(e.b)
	e.u8(statusOK)
	err := s.run(ctx, h.kind, d, e)
	if m != nil {
		m.duration.ObserveExemplar(time.Since(start).Seconds(), span.TraceIDString())
	}
	if err != nil {
		span.SetError(err)
		e.b = e.b[:status]
		e.u8(statusFor(err))
		e.str(err.Error())
	}
	span.End()
}

// run executes one decoded call and appends the OK body to e.
func (s *Server) run(ctx context.Context, kind Kind, d *dec, e *enc) error {
	switch kind {
	case KindPrepare:
		spec := decodeSpec(d)
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		info, err := s.b.Prepare(ctx, spec)
		if err != nil {
			return err
		}
		info.encode(e)
	case KindCount:
		spec := decodeCountSpec(d)
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		n, err := s.b.Count(ctx, spec)
		if err != nil {
			return err
		}
		e.i64(n)
	case KindRange:
		spec := decodeSpec(d)
		version := d.u64()
		shard := int(d.u32())
		k0, k1 := d.i64(), d.i64()
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		rows, err := s.b.Range(ctx, spec, version, shard, k0, k1)
		if err != nil {
			return err
		}
		e.answers(rows)
	case KindAccessBatch:
		req := decodeAccessBatchReq(d)
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		rows, ranks, err := s.b.AccessBatch(ctx, req.Spec, req.Version, req.Shards, req.Pos)
		if err != nil {
			return err
		}
		e.answers(rows)
		e.i64s(ranks)
	case KindRankBatch:
		req := decodeRankBatchReq(d)
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		ranks, exact, err := s.b.RankBatch(ctx, req.Spec, req.Version, req.Answers)
		if err != nil {
			return err
		}
		(&RankBatchResp{Ranks: ranks, Exact: exact}).encode(e)
	case KindStats:
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		st, err := s.b.Stats(ctx)
		if err != nil {
			return err
		}
		e.u64(st.Version)
		e.i64(st.Tuples)
		e.i64(st.Builds)
	case KindHealth:
		if err := d.err(); err != nil {
			return &BadRequestError{Msg: err.Error()}
		}
		h, err := s.b.Health(ctx)
		if err != nil {
			return err
		}
		e.bool(h.Ready)
		e.strs(h.Reasons)
	default:
		return &BadRequestError{Msg: fmt.Sprintf("rpc: unknown call kind %d", kind)}
	}
	return nil
}

// statusFor maps a backend error to its wire status; well-known
// sentinels get dedicated statuses so they decode back exactly.
func statusFor(err error) uint8 {
	var bad *BadRequestError
	switch {
	case errors.Is(err, access.ErrOutOfBound):
		return statusOutOfBound
	case errors.Is(err, access.ErrNotAnAnswer):
		return statusNotAnAnswer
	case errors.Is(err, ErrStaleVersion):
		return statusStale
	case errors.As(err, &bad):
		return statusBadRequest
	default:
		return statusInternal
	}
}
